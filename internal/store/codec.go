package store

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"sync"
)

// The payload codec: Marshal and Unmarshal carry a value built from
// exported bool, integer, float64 and string fields, arrays, slices,
// pointers and nested structs as compact binary, the payload format of
// every stored run result. The layout of a type — its exported fields
// in declaration order, recursively — is worked out once per type and
// cached.
//
// Wire format: an 8-byte layout fingerprint, then the value. Integers
// are varints (zig-zag for signed kinds), a float64 is its 8 IEEE
// bytes little-endian (so -0, NaN and ±Inf come back bit for bit), a
// bool is one byte 0 or 1, a string is its length then its bytes. A
// slice is 0 when nil or its length plus one, then its elements; a
// pointer is 0 when nil or 1 followed by its target; arrays and
// structs are their elements or fields in order. Every value has
// exactly one encoding, which Unmarshal enforces, so a payload that
// decodes re-encodes to the same bytes.
//
// The fingerprint hashes the field names and kinds of the whole type,
// so a payload of one type, or of an older layout of the same type,
// fails to decode (ErrLayout) instead of being misread.

// ErrLayout reports a payload whose fingerprint is not the target
// type's: another type, another layout of the type, or not a payload
// of this codec at all. Like ErrCorrupt it is an ordinary cache miss.
var ErrLayout = errors.New("store: payload layout fingerprint mismatch")

// fingerprintLen is the payload prefix naming the encoded layout.
const fingerprintLen = 8

// Marshal encodes the value v points to. Types with a map, interface,
// func, chan, complex or float32 field, a recursive type, or a slice of
// a type that encodes to no bytes are refused.
func Marshal(v any) ([]byte, error) {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return nil, fmt.Errorf("store: marshal needs a non-nil pointer, got %T", v)
	}
	rv = rv.Elem()
	p := planFor(rv.Type())
	if p.err != nil {
		return nil, p.err
	}
	out := make([]byte, 0, 512)
	out = append(out, p.fingerprint[:]...)
	return p.root.encode(out, rv), nil
}

// Unmarshal decodes a Marshal payload into the value v points to,
// overwriting every exported field. It fails with ErrLayout when the
// payload was encoded from another layout and with ErrCorrupt when it
// is truncated, has trailing bytes or is not in canonical form.
func Unmarshal(data []byte, v any) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("store: unmarshal needs a non-nil pointer, got %T", v)
	}
	rv = rv.Elem()
	p := planFor(rv.Type())
	if p.err != nil {
		return p.err
	}
	if len(data) < fingerprintLen || [fingerprintLen]byte(data) != p.fingerprint {
		return ErrLayout
	}
	rest, err := p.root.decode(data[fingerprintLen:], rv)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(rest))
	}
	return nil
}

// plan is one type's cached layout.
type plan struct {
	root        *codec
	fingerprint [fingerprintLen]byte
	err         error
}

// plans caches a *plan per reflect.Type.
var plans sync.Map

func planFor(t reflect.Type) *plan {
	if p, ok := plans.Load(t); ok {
		return p.(*plan)
	}
	p := &plan{}
	if p.root, p.err = build(t, map[reflect.Type]*codec{}); p.err == nil {
		sum := sha256.Sum256([]byte(p.root.desc))
		p.fingerprint = [fingerprintLen]byte(sum[:])
	}
	actual, _ := plans.LoadOrStore(t, p)
	return actual.(*plan)
}

// codec encodes and decodes one type.
type codec struct {
	kind   reflect.Kind
	typ    reflect.Type // slice and pointer targets are allocated from it
	elem   *codec       // array, slice and pointer element
	length int          // array length
	fields []field      // struct fields, exported only, in order
	// min is the fewest bytes a value of the type encodes to; a slice
	// length is checked against it before anything is allocated.
	min int
	// desc spells the layout out — field names and kinds, recursively —
	// for the fingerprint.
	desc string
}

type field struct {
	index int
	c     *codec
}

// build works out t's codec. built holds the codecs of the types seen
// so far, nil for those still being built, so a recursive type is
// refused rather than followed forever.
func build(t reflect.Type, built map[reflect.Type]*codec) (*codec, error) {
	if c, ok := built[t]; ok {
		if c == nil {
			return nil, fmt.Errorf("store: codec: recursive type %s", t)
		}
		return c, nil
	}
	built[t] = nil

	c := &codec{kind: t.Kind(), typ: t}
	switch c.kind {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.String:
		c.min, c.desc = 1, c.kind.String()
	case reflect.Float64:
		c.min, c.desc = 8, c.kind.String()
	case reflect.Array, reflect.Slice, reflect.Pointer:
		elem, err := build(t.Elem(), built)
		if err != nil {
			return nil, err
		}
		c.elem = elem
		switch c.kind {
		case reflect.Array:
			c.length = t.Len()
			c.min, c.desc = c.length*elem.min, "["+strconv.Itoa(c.length)+"]"+elem.desc
		case reflect.Slice:
			if elem.min == 0 {
				return nil, fmt.Errorf("store: codec: slice of %s, which encodes to no bytes", t.Elem())
			}
			c.min, c.desc = 1, "[]"+elem.desc
		default:
			c.min, c.desc = 1, "*"+elem.desc
		}
	case reflect.Struct:
		var desc strings.Builder
		desc.WriteByte('{')
		for i := 0; i < t.NumField(); i++ {
			sf := t.Field(i)
			if !sf.IsExported() {
				continue
			}
			fc, err := build(sf.Type, built)
			if err != nil {
				return nil, fmt.Errorf("%w (field %s.%s)", err, t, sf.Name)
			}
			c.fields = append(c.fields, field{index: i, c: fc})
			c.min += fc.min
			desc.WriteString(sf.Name + ":" + fc.desc + ";")
		}
		desc.WriteByte('}')
		c.desc = desc.String()
	default:
		return nil, fmt.Errorf("store: codec: unsupported kind %s (type %s)", c.kind, t)
	}
	built[t] = c
	return c, nil
}

func (c *codec) encode(b []byte, v reflect.Value) []byte {
	switch c.kind {
	case reflect.Bool:
		if v.Bool() {
			return append(b, 1)
		}
		return append(b, 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.AppendVarint(b, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return binary.AppendUvarint(b, v.Uint())
	case reflect.Float64:
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
	case reflect.String:
		s := v.String()
		return append(binary.AppendUvarint(b, uint64(len(s))), s...)
	case reflect.Slice:
		if v.IsNil() {
			return append(b, 0)
		}
		n := v.Len()
		b = binary.AppendUvarint(b, uint64(n)+1)
		for i := 0; i < n; i++ {
			b = c.elem.encode(b, v.Index(i))
		}
		return b
	case reflect.Pointer:
		if v.IsNil() {
			return append(b, 0)
		}
		return c.elem.encode(append(b, 1), v.Elem())
	case reflect.Array:
		for i := 0; i < c.length; i++ {
			b = c.elem.encode(b, v.Index(i))
		}
		return b
	default: // reflect.Struct
		for _, f := range c.fields {
			b = f.c.encode(b, v.Field(f.index))
		}
		return b
	}
}

// decode reads one value of c's type from b into v and returns what
// follows it.
func (c *codec) decode(b []byte, v reflect.Value) ([]byte, error) {
	switch c.kind {
	case reflect.Bool:
		if len(b) == 0 || b[0] > 1 {
			return nil, corrupt("bool", v)
		}
		v.SetBool(b[0] == 1)
		return b[1:], nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		u, rest, ok := uvarint(b)
		x := int64(u>>1) ^ -int64(u&1) // zig-zag
		if !ok || v.OverflowInt(x) {
			return nil, corrupt("integer", v)
		}
		v.SetInt(x)
		return rest, nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		u, rest, ok := uvarint(b)
		if !ok || v.OverflowUint(u) {
			return nil, corrupt("integer", v)
		}
		v.SetUint(u)
		return rest, nil
	case reflect.Float64:
		if len(b) < 8 {
			return nil, corrupt("float", v)
		}
		v.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(b)))
		return b[8:], nil
	case reflect.String:
		n, rest, ok := uvarint(b)
		if !ok || n > uint64(len(rest)) {
			return nil, corrupt("string", v)
		}
		v.SetString(string(rest[:n]))
		return rest[n:], nil
	case reflect.Slice:
		m, rest, ok := uvarint(b)
		if !ok {
			return nil, corrupt("slice length", v)
		}
		if m == 0 {
			v.SetZero()
			return rest, nil
		}
		// Every element takes at least elem.min ≥ 1 bytes: refuse a
		// length the remaining bytes cannot hold before allocating it.
		n := m - 1
		if n > uint64(len(rest))/uint64(c.elem.min) {
			return nil, corrupt("slice length", v)
		}
		s := reflect.MakeSlice(c.typ, int(n), int(n))
		for i := 0; i < int(n); i++ {
			var err error
			if rest, err = c.elem.decode(rest, s.Index(i)); err != nil {
				return nil, err
			}
		}
		v.Set(s)
		return rest, nil
	case reflect.Pointer:
		if len(b) == 0 || b[0] > 1 {
			return nil, corrupt("pointer marker", v)
		}
		if b[0] == 0 {
			v.SetZero()
			return b[1:], nil
		}
		p := reflect.New(c.typ.Elem())
		rest, err := c.elem.decode(b[1:], p.Elem())
		if err != nil {
			return nil, err
		}
		v.Set(p)
		return rest, nil
	case reflect.Array:
		for i := 0; i < c.length; i++ {
			var err error
			if b, err = c.elem.decode(b, v.Index(i)); err != nil {
				return nil, err
			}
		}
		return b, nil
	default: // reflect.Struct
		for _, f := range c.fields {
			var err error
			if b, err = f.c.decode(b, v.Field(f.index)); err != nil {
				return nil, err
			}
		}
		return b, nil
	}
}

// uvarint reads a canonical unsigned varint: binary.Uvarint also takes
// overlong encodings (a trailing 0x00 group), which would not
// re-encode to the same bytes.
func uvarint(b []byte) (uint64, []byte, bool) {
	u, n := binary.Uvarint(b)
	if n <= 0 || n > 1 && b[n-1] == 0 {
		return 0, nil, false
	}
	return u, b[n:], true
}

func corrupt(what string, v reflect.Value) error {
	return fmt.Errorf("%w: bad %s for %s", ErrCorrupt, what, v.Type())
}
