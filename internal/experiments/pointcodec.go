package experiments

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sort"
)

// Point codec: the one binary format of a point result wherever it leaves
// the process — the disk cache payload (cachedPoint, inside the
// self-verifying envelope) and the result payload pipe workers and fleet
// nodes send back (workerResult). Both are fixed-shape Go structs, so the
// format carries no schema: encoder and decoder walk the same type by
// reflection, field by field in declaration order.
//
//   - bool: one byte, 0 or 1;
//   - signed integers: zig-zag varint;
//   - float64: the IEEE-754 bits, 8 bytes little-endian, so NaN payloads,
//     ±Inf and −0 round-trip exactly;
//   - string: uvarint length, then the bytes;
//   - array: the elements in order (the type fixes the length);
//   - struct: the fields in declaration order;
//   - map with string keys: uvarint count, then key/value pairs in strictly
//     ascending key order, so encoding is deterministic; an empty map
//     decodes to nil.
//
// Every other kind is refused, and so is a struct with an unexported
// field: a field added later is either carried or rejected, never silently
// dropped (TestPointCodecRoundTripEveryField pins this). Decoding is
// strict: truncated input, trailing bytes, a length larger than the bytes
// left, a non-canonical bool or varint, out-of-order map keys and integer
// overflow are all errors, so every payload that decodes re-encodes to
// exactly its own bytes; and no length is allocated before the input has
// shown it holds that many bytes.

// encodePoint returns the encoding of *v. The payload types are fixed at
// compile time, so an unsupported field is a bug, and it panics.
func encodePoint(v any) []byte {
	return appendPointValue(nil, reflect.ValueOf(v).Elem())
}

func appendPointValue(b []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return append(b, 1)
		}
		return append(b, 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.AppendVarint(b, v.Int())
	case reflect.Float64:
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
	case reflect.String:
		return appendPointString(b, v.String())
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			b = appendPointValue(b, v.Index(i))
		}
		return b
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			if !f.CanInterface() {
				panic(fmt.Sprintf("point codec: %s has unexported field %s", v.Type(), v.Type().Field(i).Name))
			}
			b = appendPointValue(b, f)
		}
		return b
	case reflect.Map:
		if v.Type().Key().Kind() != reflect.String {
			panic(fmt.Sprintf("point codec: unsupported map type %s", v.Type()))
		}
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
		b = binary.AppendUvarint(b, uint64(len(keys)))
		for _, k := range keys {
			b = appendPointString(b, k.String())
			b = appendPointValue(b, v.MapIndex(k))
		}
		return b
	}
	panic(fmt.Sprintf("point codec: unsupported type %s", v.Type()))
}

func appendPointString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// decodePoint decodes data into *v, which should be the zero value. The
// whole input must be consumed.
func decodePoint(data []byte, v any) error {
	d := pointDecoder{buf: data}
	if err := d.value(reflect.ValueOf(v).Elem()); err != nil {
		return fmt.Errorf("point codec: %w", err)
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("point codec: %d trailing bytes", len(d.buf))
	}
	return nil
}

// pointDecoder consumes buf from the front.
type pointDecoder struct {
	buf []byte
}

// maxMapHint caps the size hint a decoded map count may ask for: a count
// is only a claim until its entries have been read.
const maxMapHint = 64

func (d *pointDecoder) value(v reflect.Value) error {
	switch v.Kind() {
	case reflect.Bool:
		if len(d.buf) < 1 {
			return errTruncated(v.Type().String())
		}
		switch d.buf[0] {
		case 0:
			v.SetBool(false)
		case 1:
			v.SetBool(true)
		default:
			return fmt.Errorf("bool byte %#x", d.buf[0])
		}
		d.buf = d.buf[1:]
		return nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x, n := binary.Varint(d.buf)
		if err := d.checkVarint(n, v.Type().String()); err != nil {
			return err
		}
		if v.OverflowInt(x) {
			return fmt.Errorf("%d overflows %s", x, v.Type())
		}
		v.SetInt(x)
		d.buf = d.buf[n:]
		return nil
	case reflect.Float64:
		if len(d.buf) < 8 {
			return errTruncated(v.Type().String())
		}
		v.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(d.buf)))
		d.buf = d.buf[8:]
		return nil
	case reflect.String:
		s, err := d.str()
		if err != nil {
			return err
		}
		v.SetString(s)
		return nil
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if err := d.value(v.Index(i)); err != nil {
				return err
			}
		}
		return nil
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			if !f.CanSet() {
				return fmt.Errorf("%s has unexported field %s", v.Type(), v.Type().Field(i).Name)
			}
			if err := d.value(f); err != nil {
				return err
			}
		}
		return nil
	case reflect.Map:
		return d.mapValue(v)
	}
	return fmt.Errorf("unsupported type %s", v.Type())
}

func (d *pointDecoder) mapValue(v reflect.Value) error {
	t := v.Type()
	if t.Key().Kind() != reflect.String {
		return fmt.Errorf("unsupported map type %s", t)
	}
	n, err := d.length(t.String())
	if err != nil {
		return err
	}
	if n == 0 {
		v.SetZero()
		return nil
	}
	m := reflect.MakeMapWithSize(t, min(n, maxMapHint))
	elem := reflect.New(t.Elem()).Elem()
	prev := ""
	for i := 0; i < n; i++ {
		k, err := d.str()
		if err != nil {
			return err
		}
		if i > 0 && k <= prev {
			return fmt.Errorf("map key %q out of order after %q", k, prev)
		}
		prev = k
		elem.SetZero()
		if err := d.value(elem); err != nil {
			return err
		}
		m.SetMapIndex(reflect.ValueOf(k).Convert(t.Key()), elem)
	}
	v.Set(m)
	return nil
}

func (d *pointDecoder) str() (string, error) {
	n, err := d.length("string")
	if err != nil {
		return "", err
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s, nil
}

// length reads a uvarint count and rejects any count larger than the bytes
// left: every string byte and every map entry takes at least one byte.
func (d *pointDecoder) length(what string) (int, error) {
	x, n := binary.Uvarint(d.buf)
	if err := d.checkVarint(n, what); err != nil {
		return 0, err
	}
	d.buf = d.buf[n:]
	if x > uint64(len(d.buf)) {
		return 0, fmt.Errorf("%s length %d exceeds the %d bytes left", what, x, len(d.buf))
	}
	return int(x), nil
}

// checkVarint vets the n-byte varint at the front of buf: it must parse,
// and a trailing zero byte would mean a longer-than-minimal encoding.
func (d *pointDecoder) checkVarint(n int, what string) error {
	if n <= 0 {
		return fmt.Errorf("truncated or overflowing varint (%s)", what)
	}
	if n > 1 && d.buf[n-1] == 0 {
		return fmt.Errorf("overlong varint (%s)", what)
	}
	return nil
}

func errTruncated(what string) error {
	return fmt.Errorf("truncated %s", what)
}
