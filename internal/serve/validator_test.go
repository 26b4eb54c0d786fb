package serve

import (
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/schedcache"
	"repro/internal/shard"
)

// TestETagRoundTrip: parseETag inverts etagFor, and rejects every tag
// etagFor cannot build.
func TestETagRoundTrip(t *testing.T) {
	a, _, err := NewService(1).Artifact(schedcache.Key{N: 25, D: 2, AlphaT: 3, AlphaR: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, digest := range []string{a.Digest, "0", "0123456789abcdef"} {
		for _, wire := range []bool{false, true} {
			tag := etagFor(digest, wire)
			d, w, ok := parseETag(tag)
			if !ok || d != digest || w != wire {
				t.Errorf("parseETag(%s) = %q, %v, %v; want %q, %v, true", tag, d, w, ok, digest, wire)
			}
			if back := etagFor(d, w); back != tag {
				t.Errorf("etagFor(parseETag(%s)) = %s", tag, back)
			}
		}
	}
	for _, tag := range []string{
		"", `"`, `""`, `"-j"`, `"-w"`, `"abc"`, `"abc-x"`, `"abc-jj"`, `"ABC-j"`, `"a"b-j"`,
		`abc-j`, `"abc-j`, `abc-j"`, `W/"abc-j"`, `"abc-j" `, `"ab c-w"`,
	} {
		if d, w, ok := parseETag(tag); ok {
			t.Errorf("parseETag(%s) = %q, %v, true; want rejected", tag, d, w)
		}
	}
}

// remoteKeys returns the schedule paths of keys peer entry does not own
// whose validator-table slots are pairwise distinct, so their digests
// never displace one another.
func remoteKeys(t *testing.T, f *shard.Forwarder, table *validatorTable, count int) []string {
	t.Helper()
	var paths []string
	used := map[uint64]bool{}
	for n := 5; n < 200 && len(paths) < count; n++ {
		k := schedcache.Key{N: n, D: 2}.Canonical()
		if f.Owns(k) || used[table.index(k)] {
			continue
		}
		used[table.index(k)] = true
		paths = append(paths, "/schedule?"+k)
	}
	if len(paths) < count {
		t.Fatalf("found %d remote keys, want %d", len(paths), count)
	}
	return paths
}

// TestValidatorLocalNotModified: once a forwarded answer taught the entry
// a key's digest, a matching revalidation is answered 304 by the entry
// with the owner's headers, for either representation, and never reaches
// the owner.
func TestValidatorLocalNotModified(t *testing.T) {
	servers, fwds, peers := testPeers(t, 2, 0)
	entry, owner := servers[0].URL, servers[1].URL
	path, _ := ownedBy(t, fwds[0], owner)

	resp, _ := fetch(t, entry+path, "", "")
	if resp.StatusCode != http.StatusOK || resp.Header.Get(shard.ServedByHeader) != owner {
		t.Fatalf("cold request: status %d served by %q", resp.StatusCode, resp.Header.Get(shard.ServedByHeader))
	}
	jsonTag := resp.Header.Get("ETag")
	digest, _, ok := parseETag(jsonTag)
	if !ok {
		t.Fatalf("owner ETag %q does not parse", jsonTag)
	}
	ownerRequests := peers[1].requests.Load()

	for _, rep := range []struct {
		accept, tag string
	}{
		{"", jsonTag},
		{WireContentType, etagFor(digest, true)},
	} {
		viaOwner, _ := fetch(t, owner+path, rep.accept, rep.tag)
		resp, body := fetch(t, entry+path, rep.accept, rep.tag)
		if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
			t.Fatalf("Accept %q: status %d with %d body bytes, want a bare 304", rep.accept, resp.StatusCode, len(body))
		}
		if got := resp.Header.Get(shard.ServedByHeader); got != entry {
			t.Errorf("Accept %q: %s = %q, want the entry %q", rep.accept, shard.ServedByHeader, got, entry)
		}
		for _, h := range []string{"ETag", "Vary", "Cache-Control", shard.CacheHeader} {
			if got, want := resp.Header.Get(h), viaOwner.Header.Get(h); got != want || got == "" {
				t.Errorf("Accept %q: local 304 %s = %q, owner's 304 says %q", rep.accept, h, got, want)
			}
		}
		ownerRequests++ // the direct request above
	}
	if got := peers[1].requests.Load(); got != ownerRequests {
		t.Fatalf("owner saw %d requests, want %d: a local 304 crossed the hop", got, ownerRequests)
	}
	st := peers[0].validators.stats()
	if st.LocalNotModified != 2 || st.Entries != 1 || peers[0].notModified.Load() != 2 {
		t.Fatalf("entry validators %+v, not_modified %d; want 2 local 304s, 1 entry, not_modified 2",
			st, peers[0].notModified.Load())
	}
}

// TestValidatorForwards covers the revalidations the entry must not
// answer itself: each is forwarded, and the owner's answer reaches the
// client.
func TestValidatorForwards(t *testing.T) {
	t.Run("mismatched tag", func(t *testing.T) {
		servers, fwds, peers := testPeers(t, 2, 0)
		entry, owner := servers[0].URL, servers[1].URL
		path, _ := ownedBy(t, fwds[0], owner)
		cold, want := fetch(t, entry+path, "", "")
		stale := etagFor(strings.Repeat("0", 32), false)
		resp, body := fetch(t, entry+path, "", stale)
		if resp.StatusCode != http.StatusOK || resp.Header.Get(shard.ServedByHeader) != owner || string(body) != string(want) {
			t.Fatalf("stale tag: status %d served by %q", resp.StatusCode, resp.Header.Get(shard.ServedByHeader))
		}
		if resp.Header.Get("ETag") != cold.Header.Get("ETag") || peers[0].validators.local.Load() != 0 {
			t.Fatalf("stale tag: ETag %q, %d local 304s", resp.Header.Get("ETag"), peers[0].validators.local.Load())
		}
	})
	t.Run("JSON tag on a wire request", func(t *testing.T) {
		servers, fwds, peers := testPeers(t, 2, 0)
		entry, owner := servers[0].URL, servers[1].URL
		path, _ := ownedBy(t, fwds[0], owner)
		cold, _ := fetch(t, entry+path, "", "")
		jsonTag := cold.Header.Get("ETag")
		resp, body := fetch(t, entry+path, WireContentType, jsonTag)
		if resp.StatusCode != http.StatusOK || resp.Header.Get(shard.ServedByHeader) != owner {
			t.Fatalf("wire request with JSON tag: status %d served by %q", resp.StatusCode, resp.Header.Get(shard.ServedByHeader))
		}
		if ct := resp.Header.Get("Content-Type"); ct != WireContentType || !strings.HasPrefix(string(body), "TTDW") {
			t.Fatalf("wire request with JSON tag got %q", ct)
		}
		if d, _, _ := parseETag(jsonTag); resp.Header.Get("ETag") != etagFor(d, true) || peers[0].validators.local.Load() != 0 {
			t.Fatalf("wire ETag %q, %d local 304s", resp.Header.Get("ETag"), peers[0].validators.local.Load())
		}
	})
	t.Run("owned key", func(t *testing.T) {
		servers, fwds, peers := testPeers(t, 2, 0)
		self := servers[0].URL
		path, key := ownedBy(t, fwds[0], self)
		cold, _ := fetch(t, self+path, "", "")
		warm, _ := fetch(t, self+path, "", cold.Header.Get("ETag"))
		if warm.StatusCode != http.StatusNotModified || warm.Header.Get(shard.CacheHeader) != "hit" {
			t.Fatalf("owner revalidation: status %d, cache %q", warm.StatusCode, warm.Header.Get(shard.CacheHeader))
		}
		if st := peers[0].validators.stats(); st.Entries != 0 || st.LocalNotModified != 0 {
			t.Fatalf("serving an owned key touched the table: %+v", st)
		}
		// A digest planted for an owned key is never consulted: the owner
		// answers from its artifact.
		bogus := strings.Repeat("f", 32)
		peers[0].validators.learn(key.Canonical(), bogus)
		resp, _ := fetch(t, self+path, "", etagFor(bogus, false))
		if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") != cold.Header.Get("ETag") {
			t.Fatalf("planted digest for an owned key: status %d, ETag %q", resp.StatusCode, resp.Header.Get("ETag"))
		}
	})
	t.Run("expired digest", func(t *testing.T) {
		const maxAge = 60
		servers, fwds, peers := testPeers(t, 2, maxAge)
		var clock atomic.Int64
		clock.Store(time.Unix(1000, 0).UnixNano())
		peers[0].validators.now = func() time.Time { return time.Unix(0, clock.Load()) }
		entry, owner := servers[0].URL, servers[1].URL
		path, _ := ownedBy(t, fwds[0], owner)
		tag := fetch1(t, entry+path)
		for _, step := range []struct {
			at       time.Duration // since the digest was learned
			servedBy string
		}{
			{0, entry},
			{maxAge*time.Second - 1, entry},
			{maxAge * time.Second, owner},     // expired: forwarded, and learned again
			{2*maxAge*time.Second - 1, entry}, // fresh from the relearn
			{2 * maxAge * time.Second, owner},
		} {
			clock.Store(time.Unix(1000, 0).Add(step.at).UnixNano())
			resp, _ := fetch(t, entry+path, "", tag)
			if resp.StatusCode != http.StatusNotModified || resp.Header.Get(shard.ServedByHeader) != step.servedBy {
				t.Fatalf("+%v: status %d served by %q, want 304 by %q", step.at, resp.StatusCode,
					resp.Header.Get(shard.ServedByHeader), step.servedBy)
			}
		}
	})
	t.Run("MaxAge < 0", func(t *testing.T) {
		servers, fwds, peers := testPeers(t, 2, -1)
		entry, owner := servers[0].URL, servers[1].URL
		path, _ := ownedBy(t, fwds[0], owner)
		tag := fetch1(t, entry+path)
		for i := 0; i < 3; i++ {
			resp, _ := fetch(t, entry+path, "", tag)
			if resp.StatusCode != http.StatusNotModified || resp.Header.Get(shard.ServedByHeader) != owner {
				t.Fatalf("revalidation %d: status %d served by %q", i, resp.StatusCode, resp.Header.Get(shard.ServedByHeader))
			}
			if cc := resp.Header.Get("Cache-Control"); cc != "" {
				t.Fatalf("MaxAge < 0 relayed Cache-Control %q", cc)
			}
		}
		if st := peers[0].validators.stats(); st.Entries != 0 || st.LocalNotModified != 0 {
			t.Fatalf("MaxAge < 0 learned: %+v", st)
		}
	})
}

// fetch1 GETs url once with no validator and returns the ETag it carried.
func fetch1(t *testing.T, url string) string {
	t.Helper()
	resp, _ := fetch(t, url, "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d", url, resp.StatusCode)
	}
	return resp.Header.Get("ETag")
}

// TestValidatorLoopGuardFirst: a request already marked forwarded is
// refused with 421 by a non-owner even when its tag matches a learned
// digest.
func TestValidatorLoopGuardFirst(t *testing.T) {
	servers, fwds, _ := testPeers(t, 2, 0)
	entry, owner := servers[0].URL, servers[1].URL
	path, _ := ownedBy(t, fwds[0], owner)
	tag := fetch1(t, entry+path)
	req, err := http.NewRequest(http.MethodGet, entry+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("If-None-Match", tag)
	req.Header.Set(shard.ForwardedHeader, "http://someone")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() //nolint:errcheck // test
	if resp.StatusCode != http.StatusMisdirectedRequest || fwds[0].Metrics().LoopRejects != 1 {
		t.Fatalf("guarded revalidation at a non-owner: status %d, loopRejects %d", resp.StatusCode, fwds[0].Metrics().LoopRejects)
	}
}

// TestValidatorSlotCollision: two keys sharing a slot never validate each
// other. The slot holds one full key, so the other key's revalidations
// are forwarded and the owner answers for the key that was asked.
func TestValidatorSlotCollision(t *testing.T) {
	servers, fwds, peers := testPeers(t, 2, 0)
	entry, owner := servers[0].URL, servers[1].URL
	table := &peers[0].validators
	var a, b string
	seen := map[uint64]string{}
	for n := 5; n < 2000 && b == ""; n++ {
		k := schedcache.Key{N: n, D: 2}.Canonical()
		if fwds[0].Owns(k) {
			continue
		}
		if other, ok := seen[table.index(k)]; ok {
			a, b = other, k
		}
		seen[table.index(k)] = k
	}
	if b == "" {
		t.Fatal("no two remote keys share a slot")
	}
	tagA := fetch1(t, entry+"/schedule?"+a)
	tagB := fetch1(t, owner+"/schedule?"+b)
	for _, inm := range []string{tagA, "*"} {
		// The slot holds a: a's tag, or any tag at all, must not
		// validate b.
		resp, _ := fetch(t, entry+"/schedule?"+b, "", inm)
		if resp.Header.Get(shard.ServedByHeader) != owner || resp.Header.Get("ETag") != tagB {
			t.Fatalf("key %s with If-None-Match %s: served by %q with ETag %q, want the owner's answer with %s",
				b, inm, resp.Header.Get(shard.ServedByHeader), resp.Header.Get("ETag"), tagB)
		}
		// b displaced a, so a's own revalidation goes to the owner, which
		// puts a back.
		resp, _ = fetch(t, entry+"/schedule?"+a, "", tagA)
		if resp.StatusCode != http.StatusNotModified || resp.Header.Get(shard.ServedByHeader) != owner {
			t.Fatalf("displaced key: status %d served by %q", resp.StatusCode, resp.Header.Get(shard.ServedByHeader))
		}
	}
	if st := table.stats(); st.LocalNotModified != 0 || st.Entries != 1 {
		t.Fatalf("validators after collisions: %+v", st)
	}
}

// TestConcurrentRevalidations sends concurrent cold requests and
// revalidations of several remote keys, in both representations, through
// one entry peer: the table is allocated, learned and read from many
// goroutines at once. Every revalidation after a goroutine's own cold
// request is answered by the entry. Run under -race.
func TestConcurrentRevalidations(t *testing.T) {
	servers, fwds, peers := testPeers(t, 2, 0)
	entry := servers[0].URL
	paths := remoteKeys(t, fwds[0], &peers[0].validators, 4)
	const (
		workers = 16
		rounds  = 8
	)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			path := paths[w%len(paths)]
			accept := ""
			if w%2 == 1 {
				accept = WireContentType
			}
			cold, _, err := tryFetch(entry+path, accept, "")
			if err != nil {
				t.Error(err)
				return
			}
			tag := cold.Header.Get("ETag")
			for i := 0; i < rounds; i++ {
				resp, body, err := tryFetch(entry+path, accept, tag)
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode != http.StatusNotModified || len(body) != 0 ||
					resp.Header.Get(shard.ServedByHeader) != entry || resp.Header.Get("ETag") != tag {
					t.Errorf("worker %d round %d: status %d served by %q ETag %q", w, i,
						resp.StatusCode, resp.Header.Get(shard.ServedByHeader), resp.Header.Get("ETag"))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	want := ValidatorStats{LocalNotModified: workers * rounds, Entries: int64(len(paths))}
	if st := peers[0].validators.stats(); st != want {
		t.Fatalf("validators %+v, want %+v", st, want)
	}
}

// TestValidatorTruncatedRelay: an owner that sends an ETag and then fewer
// body bytes than its Content-Length teaches the entry nothing. The
// client sees the short body, and the entry forwards the next
// revalidation of that key instead of answering it from the tag.
func TestValidatorTruncatedRelay(t *testing.T) {
	servers, fwds, peers := testPeers(t, 2, 0)
	entry, owner := servers[0].URL, servers[1].URL
	path, _ := ownedBy(t, fwds[0], owner)
	tag := etagFor(strings.Repeat("a", 32), false)
	var ownerRequests atomic.Int64
	servers[1].Config.Handler.(*swappable).set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ownerRequests.Add(1)
		w.Header().Set("ETag", tag)
		if r.Header.Get("If-None-Match") == tag {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Header().Set("Content-Length", "1000")
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(`{"schedule":`)) //nolint:errcheck // the truncation is the point
	}))

	resp, body, err := tryFetch(entry+path, "", "")
	if err == nil || resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") != tag || len(body) >= 1000 {
		t.Fatalf("truncated relay reached the client as status %d, ETag %q, %d body bytes, error %v",
			resp.StatusCode, resp.Header.Get("ETag"), len(body), err)
	}
	if st := peers[0].validators.stats(); st.Entries != 0 {
		t.Fatalf("a truncated relay taught the entry a digest: %+v", st)
	}
	resp, _ = fetch(t, entry+path, "", tag)
	if resp.StatusCode != http.StatusNotModified || resp.Header.Get(shard.ServedByHeader) != owner {
		t.Fatalf("revalidation after a truncated relay: status %d served by %q, want the owner's 304",
			resp.StatusCode, resp.Header.Get(shard.ServedByHeader))
	}
	if got := ownerRequests.Load(); got != 2 {
		t.Fatalf("owner saw %d requests, want 2", got)
	}
	if got := peers[0].validators.local.Load(); got != 0 {
		t.Fatalf("entry answered %d revalidations itself after a truncated relay", got)
	}
}
