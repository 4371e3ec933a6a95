package server

import (
	"encoding/json"
	"errors"
	"math"
	"testing"
)

// FuzzNumberArrayDecode holds the RunWire array decoders to encoding/json
// as the oracle. Whatever it rejects for a plain []float64 / []int64 —
// strings, nested arrays, 1.5 into an int, overflow — they reject. Whatever
// it accepts they decode to the same bits, nil for null and empty for [],
// in a slice with no spare capacity; the one exception is a null element,
// which it reads as zero and they refuse. Called directly, outside
// json.Unmarshal's validation, they answer the same.
func FuzzNumberArrayDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkNumberArray(t, data, math.Float64bits, func(direct bool) (fs floats, err error) {
			if direct {
				return fs, fs.UnmarshalJSON(data)
			}
			return fs, json.Unmarshal(data, &fs)
		})
		checkNumberArray(t, data, func(v int64) uint64 { return uint64(v) }, func(direct bool) (ns ints, err error) {
			if direct {
				return ns, ns.UnmarshalJSON(data)
			}
			return ns, json.Unmarshal(data, &ns)
		})
	})
}

// checkNumberArray compares what encoding/json makes of data as a plain []T
// with what decode makes of it through json.Unmarshal and, direct, through
// the named type's own UnmarshalJSON.
func checkNumberArray[T float64 | int64, S ~[]T](t *testing.T, data []byte, bits func(T) uint64, decode func(direct bool) (S, error)) {
	t.Helper()
	var want []T
	wantErr := json.Unmarshal(data, &want)
	if wantErr == nil {
		var holes []*T
		if err := json.Unmarshal(data, &holes); err != nil {
			t.Fatalf("%q decodes into %T but not into %T: %v", data, want, holes, err)
		}
		for _, p := range holes {
			if p == nil {
				wantErr = errors.New("null array element")
			}
		}
	}
	for _, direct := range []bool{false, true} {
		got, err := decode(direct)
		switch {
		case wantErr != nil && err == nil:
			t.Errorf("direct=%v: %q decoded to %v, want an error like %v", direct, data, got, wantErr)
		case wantErr == nil && err != nil:
			t.Errorf("direct=%v: %q failed with %v, encoding/json reads %v", direct, data, err, want)
		}
		if wantErr != nil || err != nil {
			continue
		}
		if len(got) != len(want) || (got == nil) != (want == nil) || cap(got) != len(got) {
			t.Fatalf("direct=%v: %q decoded to %#v with cap %d, encoding/json reads %#v", direct, data, got, cap(got), want)
		}
		for i := range want {
			if bits(want[i]) != bits(got[i]) {
				t.Errorf("direct=%v: %q element %d is %v, encoding/json reads %v", direct, data, i, got[i], want[i])
			}
		}
	}
}
