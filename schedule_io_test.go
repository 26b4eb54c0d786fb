package ttdc_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	ttdc "repro"
)

// encodeScheduleReflect encodes s as per-slot element lists through
// encoding/json's reflection-driven stream encoder. It is the oracle that
// AppendScheduleJSON's bytes are held to, and it produced the JSON
// digests that serve's TestArtifactGoldenDigests pins.
func encodeScheduleReflect(t testing.TB, s *ttdc.Schedule) []byte {
	t.Helper()
	out := struct {
		N int     `json:"n"`
		T [][]int `json:"t"`
		R [][]int `json:"r"`
	}{N: s.N(), T: make([][]int, s.L()), R: make([][]int, s.L())}
	for i := 0; i < s.L(); i++ {
		out.T[i] = s.T(i).Elements()
		out.R[i] = s.R(i).Elements()
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(out); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkJSONEncoders holds AppendScheduleJSON and EncodeSchedule to the
// reflection oracle: EncodeSchedule writes the oracle's bytes, newline
// included, and the appender writes them without the newline after
// whatever dst already held.
func checkJSONEncoders(t testing.TB, name string, s *ttdc.Schedule) {
	t.Helper()
	want := encodeScheduleReflect(t, s)
	var buf bytes.Buffer
	if err := ttdc.EncodeSchedule(&buf, s); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("%s: EncodeSchedule =\n%s\nwant\n%s", name, buf.Bytes(), want)
	}
	prefix := []byte("prefix:")
	got := ttdc.AppendScheduleJSON(prefix, s)
	if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want[:len(want)-1]) {
		t.Fatalf("%s: AppendScheduleJSON =\n%s\nwant prefix:%s", name, got, want[:len(want)-1])
	}
}

// TestScheduleJSONMatchesOracle checks the appender against the reflection
// oracle on the shapes where hand-written encoding goes wrong: empty
// slots, a one-node universe, a one-slot frame, ids on both sides of the
// 64-bit word boundaries, and ids of four and five digits.
func TestScheduleJSONMatchesOracle(t *testing.T) {
	for _, c := range []struct {
		name string
		n    int
		t, r [][]int
	}{
		{"empty slots", 3, [][]int{{}, {0}, {}}, [][]int{{}, {1, 2}, {1}}},
		{"n=1", 1, [][]int{{0}, {}}, [][]int{{}, {0}}},
		{"L=1", 4, [][]int{{1, 3}}, [][]int{{0, 2}}},
		{"word boundaries", 130, [][]int{{63, 64, 65}, {0, 127, 128, 129}}, [][]int{{0, 62, 66, 129}, {63, 64, 65}}},
		{"ids >= 1000", 12001, [][]int{{999, 1000, 1001}, {9999, 10000, 12000}}, [][]int{{0, 10000}, {1000, 11999}}},
	} {
		s, err := ttdc.NewSchedule(c.n, c.t, c.r)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		checkJSONEncoders(t, c.name, s)
	}
	duty, err := ttdc.PolynomialSchedule(9, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkJSONEncoders(t, "polynomial base n=9", duty)
	if duty, err = ttdc.Construct(duty, ttdc.ConstructOptions{AlphaT: 2, AlphaR: 7, D: 2, Strategy: ttdc.Balanced}); err != nil {
		t.Fatal(err)
	}
	checkJSONEncoders(t, "padded Construct n=9", duty)
}

func TestScheduleJSONRoundTrip(t *testing.T) {
	orig, err := ttdc.PolynomialSchedule(9, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ttdc.EncodeSchedule(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ttdc.DecodeSchedule(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != orig.N() || got.L() != orig.L() {
		t.Fatalf("shape changed: %d/%d vs %d/%d", got.N(), got.L(), orig.N(), orig.L())
	}
	for i := 0; i < orig.L(); i++ {
		if !got.T(i).Equal(orig.T(i)) || !got.R(i).Equal(orig.R(i)) {
			t.Fatalf("slot %d changed", i)
		}
	}
}

// oversizedSlots renders a JSON array of count empty slot lists, for
// exercising the maxDecodedDimension guards (2^20 entries ≈ 3 MB of text).
func oversizedSlots(count int) string {
	var b strings.Builder
	b.Grow(3*count + 2)
	b.WriteByte('[')
	for i := 0; i < count; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString("[]")
	}
	b.WriteByte(']')
	return b.String()
}

func TestDecodeScheduleErrors(t *testing.T) {
	const over = 1<<20 + 1 // maxDecodedDimension + 1
	cases := []struct {
		name    string
		input   string
		wantSub string
	}{
		{"bad JSON", `{not json`, "decode schedule"},
		{"empty input", ``, "decode schedule"},
		{"n below 1", `{"n":0,"t":[[]],"r":[[]]}`, "outside [1,"},
		{"n negative", `{"n":-1,"t":[[]],"r":[[]]}`, "outside [1,"},
		{"n oversized", fmt.Sprintf(`{"n":%d,"t":[[]],"r":[[]]}`, over), "outside [1,"},
		{"T oversized", fmt.Sprintf(`{"n":2,"t":%s,"r":[[]]}`, oversizedSlots(over)), "frame length"},
		{"R oversized", fmt.Sprintf(`{"n":2,"t":[[]],"r":%s}`, oversizedSlots(over)), "receiver slot count"},
		{"T/R length mismatch", `{"n":3,"t":[[0],[1]],"r":[[1]]}`, "|T| = 2 but |R| = 1"},
		{"empty frame", `{"n":3,"t":[],"r":[]}`, "positive"},
		{"T/R overlap in a slot", `{"n":3,"t":[[0,1]],"r":[[1,2]]}`, "both transmitting and receiving"},
		{"node out of range", `{"n":3,"t":[[3]],"r":[[]]}`, "out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ttdc.DecodeSchedule(strings.NewReader(tc.input))
			if err == nil {
				t.Fatal("invalid document accepted")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}
