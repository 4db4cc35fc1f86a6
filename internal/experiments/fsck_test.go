package experiments

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jvmpower/internal/metrics"
)

// TestFsckCleanState: an intact cache dir and journal pass with nothing
// flagged.
func TestFsckClean(t *testing.T) {
	entry, _, _ := cacheEntryPath(t)
	dir := filepath.Dir(entry)
	jpath := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := metrics.OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record(map[string]any{"bench": "_209_db", "outcome": "ok"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	rep, err := Fsck(&out, dir, jpath, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt() {
		t.Fatalf("clean state reported corrupt: %+v\n%s", rep, out.String())
	}
	if rep.CacheScanned != 1 || rep.JournalSalvage.Records != 1 {
		t.Fatalf("fsck scanned %d entries, %d journal records; want 1 and 1",
			rep.CacheScanned, rep.JournalSalvage.Records)
	}
	if !strings.Contains(out.String(), "fsck: clean") {
		t.Fatalf("clean pass did not say so:\n%s", out.String())
	}
}

// TestFsckQuarantinesCorruptCacheEntry: a bit-flipped entry is detected
// offline and moved to the sidecar, and the report marks the pass corrupt.
func TestFsckQuarantinesCorruptCacheEntry(t *testing.T) {
	entry, _, _ := cacheEntryPath(t)
	dir := filepath.Dir(entry)
	data, err := os.ReadFile(entry)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x40
	if err := os.WriteFile(entry, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	rep, err := Fsck(&out, dir, "", false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Corrupt() || rep.CacheCorrupt != 1 {
		t.Fatalf("fsck missed the corrupt entry: %+v\n%s", rep, out.String())
	}
	q := filepath.Join(dir, corruptDirName, filepath.Base(entry))
	if _, err := os.Stat(q); err != nil {
		t.Fatalf("corrupt entry not quarantined: %v", err)
	}
	if _, err := os.Stat(entry); !os.IsNotExist(err) {
		t.Fatalf("corrupt entry still in cache dir (stat err %v)", err)
	}
}

// TestFsckReportsStaleEnvelopeVersion: an entry sealed by an older build
// (envelope version 1, a gob payload) beside a current one is reported as
// stale in its own count — left in place, not quarantined, and not
// corruption, so the -fsck exit code stays 0.
func TestFsckReportsStaleEnvelopeVersion(t *testing.T) {
	entry, _, _ := cacheEntryPath(t)
	dir := filepath.Dir(entry)
	payload := []byte("\x1f\xff\x81\x03\x01\x01\x0bcachedPoint\x01\xff\x82") // a gob type header
	old := append([]byte("JVPC"), 1)
	old = binary.BigEndian.AppendUint32(old, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	old = append(old, payload...)
	stale := filepath.Join(dir, "0123456789abcdef01234567.point")
	if err := os.WriteFile(stale, old, 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	rep, err := Fsck(&out, dir, "", false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt() || rep.CacheCorrupt != 0 || rep.CacheStale != 1 || rep.CacheScanned != 2 {
		t.Fatalf("fsck over one current and one stale entry: %+v\n%s", rep, out.String())
	}
	if _, err := os.Stat(stale); err != nil {
		t.Fatalf("stale entry moved: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, corruptDirName)); !os.IsNotExist(err) {
		t.Fatalf("quarantine sidecar created for a stale entry (stat err %v)", err)
	}
	if !strings.Contains(out.String(), "1 stale") || !strings.Contains(out.String(), "fsck: clean") {
		t.Fatalf("report does not name the stale entry:\n%s", out.String())
	}
}

// TestFsckRepairsTornJournal: a torn journal tail is reported; with repair
// the journal is rewritten to its valid prefix (original backed up) and a
// second pass comes back clean.
func TestFsckRepairsTornJournal(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "j.jsonl")
	j, err := metrics.OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Record(map[string]any{"bench": "_209_db", "heap_mb": 40 + i, "outcome": "ok"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jpath, data[:len(data)-7], 0o644); err != nil { // tear the tail
		t.Fatal(err)
	}

	var out strings.Builder
	rep, err := Fsck(&out, "", jpath, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Corrupt() || rep.JournalSalvage.Records != 2 || !rep.JournalSalvage.TornTail {
		t.Fatalf("detection pass: %+v\n%s", rep, out.String())
	}
	if rep.JournalRepaired {
		t.Fatal("journal rewritten without -fsck-repair")
	}

	rep, err = Fsck(&out, "", jpath, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.JournalRepaired {
		t.Fatalf("repair pass did not rewrite: %+v\n%s", rep, out.String())
	}
	if _, err := os.Stat(jpath + ".pre-fsck"); err != nil {
		t.Fatalf("no pre-repair backup: %v", err)
	}

	rep, err = Fsck(&out, "", jpath, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt() || rep.JournalSalvage.Records != 2 {
		t.Fatalf("post-repair pass not clean: %+v\n%s", rep, out.String())
	}
}
