package experiments

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"jvmpower/internal/units"
)

// distinctFiller sets every leaf of a value to a distinct non-zero value.
// The first floats it meets get NaN (with a payload), +Inf, −Inf and −0,
// so the special values round-trip through real fields. A kind it does not
// know fails the test, which is how a field of a new shape surfaces.
type distinctFiller struct {
	t      *testing.T
	n      int
	floats int
}

var specialFloats = []float64{
	math.Float64frombits(0x7ff8_0000_dead_beef), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
}

func (f *distinctFiller) fill(v reflect.Value) {
	f.t.Helper()
	f.n++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x := int64(f.n)
		if f.n%2 == 0 {
			x = -x
		}
		v.SetInt(x)
	case reflect.Float64:
		if f.floats < len(specialFloats) {
			v.SetFloat(specialFloats[f.floats])
		} else {
			v.SetFloat(float64(f.n) + 0.125)
		}
		f.floats++
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d\x00\xff", f.n))
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			f.fill(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f.fill(v.Field(i))
		}
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		for _, k := range []string{"transient", "kill", "hang", "", "zz"} {
			e := reflect.New(v.Type().Elem()).Elem()
			f.fill(e)
			m.SetMapIndex(reflect.ValueOf(k).Convert(v.Type().Key()), e)
		}
		v.Set(m)
	default:
		f.t.Fatalf("no filler for %s; teach it (and the point codec) the new kind", v.Type())
	}
}

// requireBitEqual compares two values leaf by leaf, floats by their bits.
func requireBitEqual(t *testing.T, path string, want, got reflect.Value) {
	t.Helper()
	switch want.Kind() {
	case reflect.Float64:
		if math.Float64bits(want.Float()) != math.Float64bits(got.Float()) {
			t.Errorf("%s: bits %#x, want %#x", path, math.Float64bits(got.Float()), math.Float64bits(want.Float()))
		}
	case reflect.Array:
		for i := 0; i < want.Len(); i++ {
			requireBitEqual(t, fmt.Sprintf("%s[%d]", path, i), want.Index(i), got.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < want.NumField(); i++ {
			requireBitEqual(t, path+"."+want.Type().Field(i).Name, want.Field(i), got.Field(i))
		}
	case reflect.Map:
		if want.Len() != got.Len() {
			t.Errorf("%s: %d entries, want %d", path, got.Len(), want.Len())
			return
		}
		for _, k := range want.MapKeys() {
			g := got.MapIndex(k)
			if !g.IsValid() {
				t.Errorf("%s[%q]: missing", path, k.String())
				continue
			}
			requireBitEqual(t, path+"["+k.String()+"]", want.MapIndex(k), g)
		}
	default:
		if !reflect.DeepEqual(want.Interface(), got.Interface()) {
			t.Errorf("%s: %v, want %v", path, got.Interface(), want.Interface())
		}
	}
}

// TestPointCodecRoundTripEveryField fills every field of both payload
// types with distinct non-zero values — NaN, ±Inf and −0 included — and
// requires a bit-exact round trip. A field the codec cannot carry fails
// here: the filler or the encoder refuses its kind.
func TestPointCodecRoundTripEveryField(t *testing.T) {
	for _, v := range []any{&cachedPoint{}, &workerResult{}} {
		rv := reflect.ValueOf(v).Elem()
		f := distinctFiller{t: t}
		f.fill(rv)
		if f.floats < len(specialFloats) {
			t.Fatalf("%s has %d float fields, fewer than the special values", rv.Type(), f.floats)
		}
		enc := encodePoint(v)
		got := reflect.New(rv.Type())
		if err := decodePoint(enc, got.Interface()); err != nil {
			t.Fatalf("%s: %v", rv.Type(), err)
		}
		requireBitEqual(t, rv.Type().Name(), rv, got.Elem())
	}
}

// TestPointCodecEmptyFaultCountsDecodeNil: an empty and a nil FaultCounts
// both decode to nil, as they did under gob.
func TestPointCodecEmptyFaultCountsDecodeNil(t *testing.T) {
	for _, fc := range []map[string]int64{nil, {}} {
		c := cachedPoint{LoadedClasses: 3, FaultCounts: fc}
		var got cachedPoint
		if err := decodePoint(encodePoint(&c), &got); err != nil {
			t.Fatal(err)
		}
		if got.FaultCounts != nil {
			t.Fatalf("FaultCounts %#v decoded to %#v, want nil", fc, got.FaultCounts)
		}
	}
}

// TestPointCodecDeterministic: the same value always encodes to the same
// bytes, whatever order map iteration visits its keys in.
func TestPointCodecDeterministic(t *testing.T) {
	c := cachedPoint{FaultCounts: map[string]int64{}}
	for i := 0; i < 50; i++ {
		c.FaultCounts[strings.Repeat("k", i%5)+string(rune('a'+i%26))+string(rune('0'+i/26))] = int64(i)
	}
	want := encodePoint(&c)
	for i := 0; i < 20; i++ {
		if got := encodePoint(&c); !bytes.Equal(got, want) {
			t.Fatalf("encoding %d differs from the first", i)
		}
	}
}

// validPointPayloads returns encodings that decode cleanly: a zero point,
// a filled one, and a filled workerResult.
func validPointPayloads(t testing.TB) [][]byte {
	c := cachedPoint{LoadedClasses: 412, FaultCounts: map[string]int64{"kill": 1, "transient": 3}}
	c.Decomposition.Benchmark = "_209_db"
	c.Decomposition.HeapMB = 48
	c.Decomposition.CPUEnergy[0] = 1.5
	c.Decomposition.TotalEnergy = units.Energy(math.Inf(1))
	c.GCStats.Collections = 17
	wr := workerResult{OK: true, Attempts: 2, Point: c}
	return [][]byte{encodePoint(&cachedPoint{}), encodePoint(&c), encodePoint(&wr)}
}

// TestPointCodecRejectsMalformed: every kind of damage is an error, never
// a panic or a silently short value.
func TestPointCodecRejectsMalformed(t *testing.T) {
	valid := validPointPayloads(t)[1]
	for cut := 0; cut < len(valid); cut++ {
		var c cachedPoint
		if err := decodePoint(valid[:cut], &c); err == nil {
			t.Fatalf("payload truncated to %d of %d bytes decoded cleanly", cut, len(valid))
		}
	}
	var c cachedPoint
	if err := decodePoint(append(append([]byte(nil), valid...), 0), &c); err == nil {
		t.Fatal("trailing byte accepted")
	}

	// A workerResult starts with its OK bool, then the Err string.
	if err := decodePoint([]byte{2}, &workerResult{}); err == nil {
		t.Fatal("bool byte 2 accepted")
	}
	huge := binary.AppendUvarint([]byte{1}, 1<<40)
	if err := decodePoint(huge, &workerResult{}); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("huge string length: err %v", err)
	}

	// The map is cachedPoint's last field: re-encode it by hand with keys
	// out of order, then duplicated.
	prefix := encodePoint(&cachedPoint{})
	prefix = prefix[:len(prefix)-1] // drop the empty map's count
	for name, keys := range map[string][]string{"unsorted": {"b", "a"}, "duplicate": {"a", "a"}} {
		b := binary.AppendUvarint(append([]byte(nil), prefix...), uint64(len(keys)))
		for _, k := range keys {
			b = appendPointString(b, k)
			b = binary.AppendVarint(b, 1)
		}
		if err := decodePoint(b, &cachedPoint{}); err == nil {
			t.Errorf("%s map keys accepted", name)
		}
	}
	hugeMap := binary.AppendUvarint(append([]byte(nil), prefix...), 1<<50)
	if err := decodePoint(hugeMap, &cachedPoint{}); err == nil {
		t.Error("huge map count accepted")
	}

	var unsupported struct{ P *int }
	if err := decodePoint([]byte{0}, &unsupported); err == nil {
		t.Error("pointer field accepted")
	}
	var small struct{ I int8 }
	if err := decodePoint(binary.AppendVarint(nil, 300), &small); err == nil {
		t.Error("int8 overflow accepted")
	}
	if err := decodePoint([]byte{0x80, 0x00}, &small); err == nil {
		t.Error("overlong varint accepted")
	}
}

// FuzzDecodePoint: arbitrary bytes decode into both payload types without
// panicking, with allocation bounded by the input length, and whatever
// decodes re-encodes to exactly the input (the encoding is canonical).
func FuzzDecodePoint(f *testing.F) {
	for _, v := range validPointPayloads(f) {
		f.Add(v)
		f.Add(v[:len(v)/2])
		f.Add(append(append([]byte(nil), v...), 0x00))
	}
	f.Add(binary.AppendUvarint([]byte{1}, math.MaxUint64))
	f.Add(binary.AppendUvarint([]byte{0}, 1<<40))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		var c cachedPoint
		cerr := decodePoint(data, &c)
		var wr workerResult
		werr := decodePoint(data, &wr)
		runtime.ReadMemStats(&ms)
		if grew, bound := ms.TotalAlloc-before, uint64(64<<10+256*len(data)); grew > bound {
			t.Fatalf("decoding %d bytes allocated %d bytes (bound %d)", len(data), grew, bound)
		}
		if cerr == nil && !bytes.Equal(encodePoint(&c), data) {
			t.Fatal("cachedPoint decoded but does not re-encode to its input")
		}
		if werr == nil && !bytes.Equal(encodePoint(&wr), data) {
			t.Fatal("workerResult decoded but does not re-encode to its input")
		}
	})
}
