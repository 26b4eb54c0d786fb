package serve

import (
	"bytes"
	"net/http"
	"net/url"
	"strings"
	"testing"
)

// FuzzScheduleRequest drives /schedule's trust boundary — the query
// string, Accept and If-None-Match — into the entry peer of a 2-peer
// in-process ring, and sends the same request straight to the key's owner
// as the oracle. Whether the entry rejects it, answers from its validator
// table or forwards it, the client must see what the owner says: the same
// status (so a 304 only where the owner gives one), the same ETag, and
// the same body.
//
// With prime = 1 the entry is first asked for the key without a
// validator, which teaches it the digest, and every "$" in the fuzzed
// If-None-Match becomes the ETag that answer carried; prime = 2 does the
// same with the other representation's tag.
func FuzzScheduleRequest(f *testing.F) {
	servers, fwds := testRing(f, 2)
	for _, seed := range []struct {
		query, accept, inm string
		prime              uint8
	}{
		{"n=25&D=2&alphaT=3&alphaR=5", "", "", 0},
		{"n=25&D=2&alphaT=3&alphaR=5", "", "$", 1},
		{"n=25&D=2&alphaT=3&alphaR=5", WireContentType, "$", 1},
		{"n=25&D=2&alphaT=3&alphaR=5", WireContentType, "$", 2},
		{"n=25&D=2&alphaT=3&alphaR=5&strategy=bal", "", `"x", W/$`, 1},
		{"n=9&D=2&format=wire", "", "$", 2},
		{"n=9&D=2", "", `"8f75edc6504e5da653cc6a9d72f067fa-j"`, 0},
		{"n=9&D=2", WireContentType + ";q=1", "*", 1},
		{"n=16&D=3&alphaT=4&alphaR=12&strategy=balanced", "", "$", 1},
		{"n=9&D=2&alphaT=8&alphaR=8", "", "$", 1},
		{"n=x&D=2", "", "", 0},
		{"n=2&D=9", "", "*", 0},
		{"n=9&D=2&format=yaml", "", "", 0},
		{"n=9&D=2&n=12", "", "$", 1},
		{"n=%39&D=2", "", "$", 1},
	} {
		f.Add(seed.query, seed.accept, seed.inm, seed.prime)
	}
	f.Fuzz(func(t *testing.T, query, accept, inm string, prime uint8) {
		if !plainQuery(query) || !plainHeader(accept) || !plainHeader(inm) {
			t.Skip()
		}
		q, _ := url.ParseQuery(query) // as Request.URL.Query: malformed pairs dropped
		key, wantWire, err := parseScheduleQuery(q, strings.Trim(accept, " \t"))
		if err == nil && key.N > 64 {
			t.Skip() // keeps each exec to a small build
		}
		entry, owner := servers[0].URL, servers[1].URL
		if err == nil && key.Validate() == nil && fwds[0].Owns(key.Canonical()) {
			entry, owner = owner, entry
		}
		path := "/schedule?" + query
		if prime == 1 || prime == 2 {
			primeAccept := accept
			if prime == 2 {
				primeAccept = WireContentType
				if wantWire {
					primeAccept = JSONContentType
				}
			}
			resp, _ := fetch(t, entry+path, primeAccept, "")
			inm = strings.ReplaceAll(inm, "$", resp.Header.Get("ETag"))
		}

		got, gotBody := fetch(t, entry+path, accept, inm)
		want, wantBody := fetch(t, owner+path, accept, inm)
		switch got.StatusCode {
		case http.StatusOK, http.StatusNotModified, http.StatusBadRequest, http.StatusUnprocessableEntity:
		default:
			t.Fatalf("%s (Accept %q, If-None-Match %q): status %d: %s", path, accept, inm, got.StatusCode, gotBody)
		}
		if got.StatusCode != want.StatusCode {
			t.Fatalf("%s (Accept %q, If-None-Match %q): entry answered %d, owner %d", path, accept, inm, got.StatusCode, want.StatusCode)
		}
		if g, w := got.Header.Get("ETag"), want.Header.Get("ETag"); g != w {
			t.Fatalf("%s (Accept %q, If-None-Match %q): entry ETag %q, owner %q", path, accept, inm, g, w)
		}
		if !bytes.Equal(gotBody, wantBody) {
			t.Fatalf("%s (Accept %q, If-None-Match %q): bodies differ:\nentry %q\nowner %q", path, accept, inm, gotBody, wantBody)
		}
	})
}

// plainQuery reports whether s can travel verbatim as a request-target's
// query: printable ASCII without space or '#'. Semicolons are left out
// too; net/http logs a warning for each request that carries one.
func plainQuery(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c <= ' ' || c >= 0x7f || c == '#' || c == ';' {
			return false
		}
	}
	return true
}

// plainHeader reports whether s is a header value net/http sends
// unchanged apart from trimming: no control bytes but tab.
func plainHeader(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < ' ' && c != '\t') || c == 0x7f {
			return false
		}
	}
	return true
}
