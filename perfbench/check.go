package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"

	"jvmpower/internal/core"
)

// pointDigest hashes everything a point's result carries across every
// transport (decomposition, collector statistics, loaded classes, fault
// tallies). JSON keeps every float exact and sorts map keys, so equal
// results give equal digests whichever path produced them.
func pointDigest(res *core.Result) (string, error) {
	v := struct {
		Decomposition any
		GCStats       any
		LoadedClasses int
		FaultCounts   map[string]int64 `json:",omitempty"`
	}{res.Decomposition, res.GCStats, res.LoadedClasses, res.FaultCounts}
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(v); err != nil {
		return "", fmt.Errorf("digesting a point result: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)[:16]), nil
}

func textDigest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:16])
}

// digestStore holds the reference digest of every output this build has
// computed in-process — points through a plain Runner, campaign renders
// through a one-shot Runner — across all runs in one checkout. A workload
// checks each output it observes against the reference, so its digests
// must agree across runs, across transports and with the traced
// composition. The file is named after this binary's own hash: a different
// build of the program starts a fresh store.
type digestStore struct {
	path string

	mu    sync.Mutex
	refs  map[string]string
	dirty bool
}

// fileHash returns a short hex hash of a file's contents.
func fileHash(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("hashing %s: %w", path, err)
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

func openStore(state string) (*digestStore, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	hash, err := fileHash(self)
	if err != nil {
		return nil, err
	}
	s := &digestStore{
		path: filepath.Join(state, "digests", hash+".json"),
		refs: map[string]string{},
	}
	b, err := os.ReadFile(s.path)
	switch {
	case os.IsNotExist(err):
		return s, nil
	case err != nil:
		return nil, err
	}
	if err := json.Unmarshal(b, &s.refs); err != nil {
		return nil, fmt.Errorf("%s: %w", s.path, err)
	}
	return s, nil
}

// ref returns the reference digest for key.
func (s *digestStore) ref(key string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.refs[key]
	return d, ok
}

// record checks an in-process digest against the stored reference, storing
// it when there is none yet. It reports false on disagreement.
func (s *digestStore) record(key, digest string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d, ok := s.refs[key]; ok {
		return d == digest
	}
	s.refs[key] = digest
	s.dirty = true
	return true
}

// save writes the store atomically.
func (s *digestStore) save() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.dirty {
		return nil
	}
	b, err := json.Marshal(s.refs)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(s.path), 0o755); err != nil {
		return err
	}
	tmp := s.path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, s.path)
}

// anchorRow matches one row of cmd/validate's table: the measured value,
// the band, and the verdict.
var anchorRow = regexp.MustCompile(`\s(-?[0-9.]+)\s+\[(-?[0-9.]+), (-?[0-9.]+)\]\s+(PASS|OFF)\s*$`)

// runValidate runs the repository's own cmd/validate (full-scale anchors)
// after the measured region and records how many anchors sit inside their
// bands and the smallest distance to a band edge as a fraction of the
// band's width. Margins use validate's printed precision. validate is
// deterministic, so its report is kept per validate binary and a build
// runs it once.
func runValidate(cfg config, out *outcome) error {
	bin := filepath.Join(cfg.bin, "validate")
	hash, err := fileHash(bin)
	if err != nil {
		return err
	}
	report := filepath.Join(cfg.state, "validate", hash+".txt")
	text, err := os.ReadFile(report)
	if os.IsNotExist(err) {
		cmd := exec.Command(bin)
		cmd.Stderr = os.Stderr
		text, err = cmd.Output()
		// A nonzero exit means anchors out of band; the table still counts.
		if _, ok := err.(*exec.ExitError); ok && len(text) > 0 {
			err = nil
		}
		if err != nil {
			return fmt.Errorf("running validate: %w", err)
		}
		if err := os.MkdirAll(filepath.Dir(report), 0o755); err != nil {
			return err
		}
		err = os.WriteFile(report, text, 0o644)
	}
	if err != nil {
		return err
	}
	pass, rows := 0, 0
	margin := math.Inf(1)
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		m := anchorRow.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		var v [3]float64
		for i := range v {
			if v[i], err = strconv.ParseFloat(m[i+1], 64); err != nil {
				return fmt.Errorf("validate row %q: %w", sc.Text(), err)
			}
		}
		rows++
		if m[4] == "PASS" {
			pass++
		}
		if w := v[2] - v[1]; w > 0 {
			margin = math.Min(margin, math.Min(v[0]-v[1], v[2]-v[0])/w)
		}
	}
	if rows == 0 {
		return fmt.Errorf("validate printed no anchor rows:\n%s", text)
	}
	fmt.Fprintf(os.Stderr, "perfbench: validate: %d/%d anchors in band, smallest margin %.4f\n", pass, rows, margin)
	out.set("anchors_in_band", float64(pass))
	out.set("anchor_margin_min", margin)
	return nil
}

// peakRSSMB is the largest resident set, in MiB, of this process or of any
// child it has waited for (workers, set-up children). Call it before
// starting validate, which is not part of any workload.
func peakRSSMB() float64 {
	var peak float64
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				kb, _ := strconv.ParseFloat(f[1], 64) // a malformed line reads 0
				peak = kb / 1024
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru); err == nil {
		peak = math.Max(peak, float64(ru.Maxrss)/1024)
	}
	return peak
}
