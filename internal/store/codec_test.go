package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

type codecInner struct {
	Name  string
	Count int64
	Cells [3]int32
}

type codecAll struct {
	B       bool
	I       int
	I8      int8
	I16     int16
	I32     int32
	I64     int64
	U       uint
	U8      uint8
	U16     uint16
	U32     uint32
	U64     uint64
	F       float64
	S       string
	Inner   codecInner
	Ptr     *codecInner
	NilPtr  *codecInner
	List    []codecInner
	Empty   []int64
	Nil     []int64
	Ptrs    []*codecInner
	Nested  [][]string
	private int // not encoded, as in encoding/json
}

func fullCodecAll() codecAll {
	return codecAll{
		B: true, I: -1 << 62, I8: math.MinInt8, I16: math.MaxInt16, I32: math.MinInt32, I64: math.MaxInt64,
		U: 1 << 63, U8: math.MaxUint8, U16: 300, U32: math.MaxUint32, U64: math.MaxUint64,
		F:       math.Copysign(0, -1),
		S:       "héllo \x00 \xff",
		Inner:   codecInner{Name: "in", Count: -7, Cells: [3]int32{1, -2, 3}},
		Ptr:     &codecInner{Name: "p"},
		List:    []codecInner{{Name: "a"}, {Count: 1 << 40}},
		Empty:   []int64{},
		Ptrs:    []*codecInner{nil, {Name: "x"}},
		Nested:  [][]string{nil, {}, {"", "y"}},
		private: 9,
	}
}

func TestCodecRoundTrip(t *testing.T) {
	want := fullCodecAll()
	data, err := Marshal(&want)
	if err != nil {
		t.Fatal(err)
	}
	var got codecAll
	got.Nil = []int64{5} // overwritten: Unmarshal sets every exported field
	if err := Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	want.private = 0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
	if got.Nil != nil || got.Empty == nil || got.Nested[0] != nil || got.Nested[1] == nil || got.NilPtr != nil {
		t.Error("nil and empty slices or pointers did not come back as encoded")
	}
	if !math.Signbit(got.F) {
		t.Error("-0 lost its sign")
	}
	again, err := Marshal(&got)
	if err != nil || !bytes.Equal(again, data) {
		t.Fatalf("re-encoding differs (err %v)", err)
	}
}

func TestCodecFloatBits(t *testing.T) {
	type floats struct{ V []float64 }
	in := floats{V: []float64{math.NaN(), math.Float64frombits(0x7ff0_0000_0000_0001), math.Inf(1), math.Inf(-1),
		math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.MaxFloat64}}
	data, err := Marshal(&in)
	if err != nil {
		t.Fatal(err)
	}
	var out floats
	if err := Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	for i := range in.V {
		if math.Float64bits(out.V[i]) != math.Float64bits(in.V[i]) {
			t.Errorf("V[%d]: bits %#x, want %#x", i, math.Float64bits(out.V[i]), math.Float64bits(in.V[i]))
		}
	}
}

// TestCodecRefusesTypes: what the codec cannot carry exactly fails when
// its layout is built, on the first Marshal or Unmarshal of the type.
func TestCodecRefusesTypes(t *testing.T) {
	type recursive struct{ Next *recursive }
	type opaque struct{ hidden int }
	for name, v := range map[string]any{
		"map":               &struct{ M map[string]int }{},
		"interface":         &struct{ I any }{},
		"func":              &struct{ F func() }{},
		"chan":              &struct{ C chan int }{},
		"float32":           &struct{ F float32 }{},
		"complex":           &struct{ C complex128 }{},
		"recursive":         &recursive{},
		"zero-size element": &struct{ S []struct{} }{},
		"no exported field": &struct{ S []opaque }{},
		"empty array":       &struct{ S [][0]int64 }{},
		"nested map": &struct {
			L []struct{ P *struct{ M map[int]int } }
		}{},
	} {
		if _, err := Marshal(v); err == nil {
			t.Errorf("%s: Marshal succeeded", name)
		}
		if err := Unmarshal([]byte("12345678"), v); err == nil || errors.Is(err, ErrLayout) {
			t.Errorf("%s: Unmarshal gave %v, want the layout refused", name, err)
		}
	}
}

func TestCodecRejectsOtherLayouts(t *testing.T) {
	type a struct{ X, Y int64 }
	type b struct{ X, Z int64 } // same kinds, another field name
	type c struct{ X, Y int32 } // same names, other kinds
	data, err := Marshal(&a{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := Unmarshal(data, &b{}); !errors.Is(err, ErrLayout) {
		t.Errorf("a payload into b: %v, want ErrLayout", err)
	}
	if err := Unmarshal(data, &c{}); !errors.Is(err, ErrLayout) {
		t.Errorf("a payload into c: %v, want ErrLayout", err)
	}
	js, _ := json.Marshal(a{1, 2})
	if err := Unmarshal(js, &a{}); !errors.Is(err, ErrLayout) {
		t.Errorf("JSON payload: %v, want ErrLayout", err)
	}
	if err := Unmarshal(nil, &a{}); !errors.Is(err, ErrLayout) {
		t.Errorf("empty payload: %v, want ErrLayout", err)
	}
}

// TestCodecRejectsNonCanonical: every truncation, trailing bytes and
// every encoding Marshal would not produce fail with ErrCorrupt, so a
// payload that decodes is always the encoding of what it decodes to.
func TestCodecRejectsNonCanonical(t *testing.T) {
	v := fullCodecAll()
	data, err := Marshal(&v)
	if err != nil {
		t.Fatal(err)
	}
	for n := fingerprintLen; n < len(data); n++ {
		if err := Unmarshal(data[:n], &codecAll{}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncated to %d of %d bytes: %v, want ErrCorrupt", n, len(data), err)
		}
	}
	if err := Unmarshal(append(data[:len(data):len(data)], 0), &codecAll{}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing byte: %v, want ErrCorrupt", err)
	}

	type one struct {
		B bool
		I int8
		P *int64
	}
	fp := planFor(reflect.TypeOf(one{})).fingerprint
	for name, body := range map[string][]byte{
		"bool 2":          {2, 0, 0},
		"overlong varint": {0, 0x80, 0x00, 0},
		"int8 overflow":   {0, 0x80, 0x02, 0}, // zig-zag 256 → 128
		"pointer 2":       {0, 0, 2},
	} {
		if err := Unmarshal(append(fp[:], body...), &one{}); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: %v, want ErrCorrupt", name, err)
		}
	}
}

// TestCodecRefusesHugeLengths: a slice or string length the payload
// cannot hold is refused before anything is allocated for it.
func TestCodecRefusesHugeLengths(t *testing.T) {
	type big struct {
		L []int64
		S string
	}
	fp := planFor(reflect.TypeOf(big{})).fingerprint
	slice := binary.AppendUvarint(fp[:], 1<<24+1) // 16 Mi elements, 128 MiB
	str := binary.AppendUvarint(append(fp[:], 0), 1<<27)
	for name, data := range map[string][]byte{"slice": slice, "string": str} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := Unmarshal(append(data, 1, 2, 3), &big{})
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: %v, want ErrCorrupt naming the %s", name, err, name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: refusing the length allocated %d bytes", name, grew)
		}
	}
}
