package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzDecodeCampaign hardens the campaign entry point the same way
// FuzzDecodeSchedule hardens the schedule decoder: arbitrary bytes must
// never panic, anything accepted must satisfy the expansion bounds, and a
// decoded campaign must survive an encode/decode round trip.
func FuzzDecodeCampaign(f *testing.F) {
	f.Add(`{"n":[9,16],"d":[2],"duty":[{"alphaT":2,"alphaR":4}],"workload":"saturation","frames":2,"replications":3,"seed":42}`)
	f.Add(`{"name":"x","n":[25],"d":[2],"topology":"geometric","radius":0.3,"workload":"convergecast","rate":0.002}`)
	f.Add(`{"n":[4096],"d":[4095]}`)
	f.Add(`{"n":[9],"d":[2],"duty":[{"alphaT":1}]}`)  // half-set caps: must error
	f.Add(`{"n":[-1],"d":[2]}`)                       // out of range
	f.Add(`{"n":[9],"d":[2],"replications":1000000}`) // over the job cap
	f.Add(`{"n":[9],"d":[2],"alphaT":[2]}`)           // unknown field
	f.Add(`{"n":[9],"d":[2],"rate":1e308}`)
	f.Add(`{`)
	f.Add(``)
	f.Add(`[]`)
	f.Add(`{"n":[9],"d":[2],"seed":18446744073709551615}`)
	f.Fuzz(func(t *testing.T, data string) {
		c, err := DecodeCampaign(strings.NewReader(data))
		if err != nil {
			return
		}
		specs, err := c.Expand()
		if err != nil {
			t.Fatalf("validated campaign failed to expand: %v", err)
		}
		if len(specs) == 0 || len(specs) > MaxJobs {
			t.Fatalf("expansion size %d outside (0, %d]", len(specs), MaxJobs)
		}
		// Round trip must preserve the expansion.
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(c); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		c2, err := DecodeCampaign(&buf)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		specs2, err := c2.Expand()
		if err != nil {
			t.Fatalf("re-expand: %v", err)
		}
		if len(specs2) != len(specs) {
			t.Fatalf("round trip changed job count: %d != %d", len(specs2), len(specs))
		}
		for i := range specs {
			if specs[i] != specs2[i] {
				t.Fatalf("round trip changed job %d: %+v != %+v", i, specs[i], specs2[i])
			}
		}
	})
}

// FuzzOpenJournal hardens the resume entry point over arbitrary bytes, and,
// through mutations of the well-formed seeds, over corrupted middle lines.
// OpenJournal must never panic. It either fails, naming the first complete
// line that does not parse and leaving the file as it was, or loads exactly
// the complete lines and truncates the file to them, dropping only a torn
// final fragment.
func FuzzOpenJournal(f *testing.F) {
	var journal []byte
	for i, rec := range []Record{
		{Index: 0, ID: "n=9/D=2/r0", Seed: 1, Status: StatusOK, Result: json.RawMessage(`{"l":9,"delivered":[3,4]}`)},
		{Index: 1, ID: "n=9/D=2/r1", Seed: 2, Status: StatusFail, Error: "core: D = 20 outside [1, n-1]"},
		{Index: 2, ID: "n=16/D=2/r0", Seed: 3, Status: StatusOK, Result: json.RawMessage(`{"l":16}`)},
	} {
		line, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		journal = append(append(journal, line...), '\n')
		if i == 1 {
			f.Add(append([]byte(nil), journal...))
		}
	}
	f.Add(journal)
	f.Add(journal[:len(journal)-20])                                             // torn tail
	f.Add(bytes.Replace(journal, []byte(`{"index":1`), []byte(`x"index":1`), 1)) // corrupt middle line
	f.Add(bytes.Replace(journal, []byte("\n"), []byte("\n\n"), 1))               // blank middle line
	f.Add([]byte(""))
	f.Add([]byte("\n"))
	f.Add([]byte("null\n"))
	f.Add([]byte(`{"index":0}` + "\n" + `{"index":`))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		complete := data[:bytes.LastIndexByte(data, '\n')+1]
		lines := bytes.Split(complete, []byte("\n"))
		lines = lines[:len(lines)-1] // complete is empty or ends in a newline
		var want []Record
		bad := 0 // first complete line that does not parse, counted from 1
		for i, line := range lines {
			var rec Record
			if err := json.Unmarshal(line, &rec); err != nil {
				bad = i + 1
				break
			}
			want = append(want, rec)
		}
		j, err := OpenJournal(path)
		after, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if err != nil {
			if bad == 0 {
				t.Fatalf("OpenJournal failed although every complete line parses: %v", err)
			}
			if !strings.Contains(err.Error(), fmt.Sprintf("line %d ", bad)) {
				t.Fatalf("OpenJournal error %q does not name line %d", err, bad)
			}
			if !bytes.Equal(after, data) {
				t.Fatalf("failed OpenJournal changed the file from %d to %d bytes", len(data), len(after))
			}
			return
		}
		defer j.Close() //nolint:errcheck // only read
		if bad != 0 {
			t.Fatalf("OpenJournal accepted line %d, which does not parse", bad)
		}
		if got := j.Records(); !reflect.DeepEqual(got, want) {
			t.Fatalf("loaded %d records %+v, want the %d complete lines %+v", len(got), got, len(want), want)
		}
		if !bytes.Equal(after, complete) {
			t.Fatalf("journal is %d bytes after open, want its %d bytes of complete lines", len(after), len(complete))
		}
	})
}
