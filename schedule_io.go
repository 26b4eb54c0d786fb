package ttdc

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"strconv"

	"repro/internal/bitset"
)

// scheduleJSON is the on-disk form of a schedule: per-slot transmitter and
// receiver node lists. DecodeSchedule reads it; AppendScheduleJSON writes
// the same document straight from the slot sets.
type scheduleJSON struct {
	N int     `json:"n"`
	T [][]int `json:"t"`
	R [][]int `json:"r"`
}

// EncodeSchedule writes s to w as JSON ({"n":..., "t":[[...]], "r":[[...]]})
// followed by a newline.
func EncodeSchedule(w io.Writer, s *Schedule) error {
	_, err := w.Write(append(AppendScheduleJSON(nil, s), '\n'))
	return err
}

// AppendScheduleJSON appends the compact JSON document of s to dst and
// returns the extended slice: {"n":N,"t":[[...],...],"r":[[...],...]},
// each slot's nodes in increasing order and an empty slot as []. It is the
// package's only schedule-JSON encoder: EncodeSchedule writes its output
// plus a newline, and the serving tier embeds it in the /schedule
// response.
//
// The elements are read straight off the slot sets' words, and dst grows
// at most once, by an upper bound on the document's length (each node id
// takes at most len(n) digits and a comma). The spare capacity dst had
// beyond its length is still free after the document, so a caller that
// reserves room for what follows appends it without another allocation.
func AppendScheduleJSON(dst []byte, s *Schedule) []byte {
	size, digits := 32, len(strconv.Itoa(s.N()))
	for i := 0; i < s.L(); i++ {
		size += 6 + (s.T(i).Count()+s.R(i).Count())*(digits+1)
	}
	dst = slices.Grow(dst, size+cap(dst)-len(dst))
	dst = append(dst, `{"n":`...)
	dst = strconv.AppendInt(dst, int64(s.N()), 10)
	dst = append(dst, `,"t":[`...)
	for i := 0; i < s.L(); i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendSetJSON(dst, s.T(i))
	}
	dst = append(dst, `],"r":[`...)
	for i := 0; i < s.L(); i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendSetJSON(dst, s.R(i))
	}
	return append(dst, "]}"...)
}

// appendSetJSON appends set's elements as a JSON array of integers. Each
// element is written with a trailing comma and the last comma becomes the
// closing bracket. Ids below 100, every id of the small classes a fleet
// pulls, are written as digits directly; strconv was two thirds of the
// encoder's time on them.
func appendSetJSON(dst []byte, set *bitset.Set) []byte {
	dst = append(dst, '[')
	for wi, w := range set.Words() {
		for w != 0 {
			switch e := wi*64 + bits.TrailingZeros64(w); {
			case e < 10:
				dst = append(dst, byte('0'+e), ',')
			case e < 100:
				dst = append(dst, byte('0'+e/10), byte('0'+e%10), ',')
			default:
				dst = append(strconv.AppendInt(dst, int64(e), 10), ',')
			}
			w &= w - 1
		}
	}
	if dst[len(dst)-1] == ',' {
		dst[len(dst)-1] = ']'
		return dst
	}
	return append(dst, ']')
}

// maxDecodedDimension bounds n and L when decoding untrusted input, so a
// hostile document cannot force pathological allocations.
const maxDecodedDimension = 1 << 20

// DecodeSchedule reads a schedule previously written by EncodeSchedule.
func DecodeSchedule(r io.Reader) (*Schedule, error) {
	var in scheduleJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("ttdc: decode schedule: %w", err)
	}
	if in.N < 1 || in.N > maxDecodedDimension {
		return nil, fmt.Errorf("ttdc: decoded n = %d outside [1, %d]", in.N, maxDecodedDimension)
	}
	if len(in.T) > maxDecodedDimension {
		return nil, fmt.Errorf("ttdc: decoded frame length %d exceeds %d", len(in.T), maxDecodedDimension)
	}
	if len(in.R) > maxDecodedDimension {
		return nil, fmt.Errorf("ttdc: decoded receiver slot count %d exceeds %d", len(in.R), maxDecodedDimension)
	}
	s, err := NewSchedule(in.N, in.T, in.R)
	if err != nil {
		return nil, fmt.Errorf("ttdc: decoded schedule invalid: %w", err)
	}
	return s, nil
}
