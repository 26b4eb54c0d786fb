package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// Journal is the engine's checkpoint file: one JSON record per line, in
// job-index order, appended as jobs finish. Opening an existing journal
// loads its records, which Engine.Run uses as the finished set for resume.
//
// A run killed mid-write can leave a torn final line, a fragment with no
// newline; Open truncates the file back to the last complete record, so
// the journal is always a clean prefix of the full campaign and appends
// continue from there. A complete line that does not parse is corruption,
// not a torn write: Open fails, names the line and leaves the file as it
// is, rather than drop the records after it. Because
// records carry no wall-clock fields and are written in index order, the
// journal of an interrupted-then-resumed campaign is byte-identical to the
// journal of an uninterrupted one.
type Journal struct {
	mu      sync.Mutex
	f       *os.File
	records []Record
}

// OpenJournal opens (creating if needed) the journal at path and loads any
// records a previous run left in it.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("engine: open journal: %w", err)
	}
	j := &Journal{f: f}
	if err := j.load(); err != nil {
		f.Close() //nolint:errcheck // already failing
		return nil, err
	}
	return j, nil
}

// load parses every complete line of the existing file and truncates a
// torn final fragment. A complete line that does not parse is an error.
func (j *Journal) load() error {
	data, err := io.ReadAll(j.f)
	if err != nil {
		return fmt.Errorf("engine: read journal: %w", err)
	}
	goodEnd := 0
	for line := 1; ; line++ {
		nl := bytes.IndexByte(data[goodEnd:], '\n')
		if nl < 0 {
			break // no newline: torn tail from a killed run, or none
		}
		var rec Record
		if err := json.Unmarshal(data[goodEnd:goodEnd+nl], &rec); err != nil {
			return fmt.Errorf("engine: journal line %d does not parse: %v", line, err)
		}
		j.records = append(j.records, rec)
		goodEnd += nl + 1
	}
	if goodEnd < len(data) {
		if err := j.f.Truncate(int64(goodEnd)); err != nil {
			return fmt.Errorf("engine: truncate torn journal tail: %w", err)
		}
	}
	if _, err := j.f.Seek(int64(goodEnd), io.SeekStart); err != nil {
		return fmt.Errorf("engine: seek journal: %w", err)
	}
	return nil
}

// Records returns the records loaded when the journal was opened. The
// engine treats their indices as already finished.
func (j *Journal) Records() []Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]Record(nil), j.records...)
}

// Append writes one record as a single line and flushes it to the file, so
// a kill between appends loses at most in-flight jobs, never recorded ones.
func (j *Journal) Append(rec Record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("engine: marshal journal record: %w", err)
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("engine: append journal record: %w", err)
	}
	return nil
}

// Close releases the underlying file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}
