package ttdc_test

import (
	"bytes"
	"strings"
	"testing"

	ttdc "repro"
)

// FuzzDecodeSchedule hardens the JSON entry point: arbitrary bytes must
// never panic, anything that decodes must re-encode and decode to an
// identical schedule, and the re-encoding must be byte for byte the
// reflection oracle's. (Run with `go test -fuzz FuzzDecodeSchedule` to
// explore; the seed corpus runs in normal `go test`.)
func FuzzDecodeSchedule(f *testing.F) {
	good, err := ttdc.TDMA(4)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ttdc.EncodeSchedule(&buf, good); err != nil {
		f.Fatal(err)
	}
	// A duty-cycled schedule exercises sleeping slots in the corpus too.
	if ns, err := ttdc.PolynomialSchedule(9, 2); err == nil {
		if duty, err := ttdc.Construct(ns, ttdc.ConstructOptions{AlphaT: 2, AlphaR: 4, D: 2}); err == nil {
			var dbuf bytes.Buffer
			if err := ttdc.EncodeSchedule(&dbuf, duty); err == nil {
				f.Add(dbuf.String())
			}
		}
	}
	f.Add(buf.String())
	f.Add(`{"n":3,"t":[[0]],"r":[[1,2]]}`)
	f.Add(`{"n":3,"t":[[0,1]],"r":[[1]]}`)     // overlap: must error, not panic
	f.Add(`{"n":3,"t":[[0],[1]],"r":[[1]]}`)   // |T| != |R|: must error, not panic
	f.Add(`{"n":3,"t":[[0,0]],"r":[[1,1,2]]}`) // duplicate nodes in a slot
	f.Add(`{"n":3,"t":[[-1]],"r":[[9]]}`)      // nodes outside [0, n)
	f.Add(`{"n":-1}`)
	f.Add(`{`)
	f.Add(``)
	f.Add(`{"n":1000000,"t":[],"r":[]}`)
	f.Add(`{"n":1048577,"t":[[]],"r":[[]]}`)                     // n > maxDecodedDimension
	f.Add(`{"n":2,"t":[[]],"r":[[],[],[],[]]}`)                  // R longer than T
	f.Add(`{"n":1001,"t":[[63,64,1000],[]],"r":[[0,65],[999]]}`) // word boundaries, 4-digit ids, an empty slot
	f.Fuzz(func(t *testing.T, data string) {
		s, err := ttdc.DecodeSchedule(strings.NewReader(data))
		if err != nil {
			return
		}
		checkJSONEncoders(t, "decoded", s)
		// Round trip must be stable.
		var out bytes.Buffer
		if err := ttdc.EncodeSchedule(&out, s); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		s2, err := ttdc.DecodeSchedule(&out)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if s2.N() != s.N() || s2.L() != s.L() {
			t.Fatal("round trip changed shape")
		}
		for i := 0; i < s.L(); i++ {
			if !s2.T(i).Equal(s.T(i)) || !s2.R(i).Equal(s.R(i)) {
				t.Fatal("round trip changed content")
			}
		}
	})
}

// FuzzScheduleFromSlotSets hardens the slot-set constructor: arbitrary
// (frameLen, flattened sets) must never panic; successful construction
// implies a structurally valid non-sleeping schedule.
func FuzzScheduleFromSlotSets(f *testing.F) {
	f.Add(3, 3, []byte{0, 1, 2})
	f.Add(2, 5, []byte{0, 0})
	f.Add(0, 0, []byte{})
	f.Fuzz(func(t *testing.T, frameLen, n int, raw []byte) {
		if frameLen < 0 || frameLen > 64 || n < 0 || n > 16 || len(raw) > 64 {
			return
		}
		sets := make([][]int, n)
		for i, b := range raw {
			if n == 0 {
				break
			}
			sets[i%n] = append(sets[i%n], int(b))
		}
		s, err := ttdc.ScheduleFromSlotSets(frameLen, sets)
		if err != nil {
			return
		}
		if !s.IsNonSleeping() {
			t.Fatal("slot-set schedule should be non-sleeping")
		}
		if s.L() != frameLen || s.N() != n {
			t.Fatal("shape mismatch")
		}
	})
}
