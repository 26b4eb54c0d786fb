package sim

import (
	"runtime"
	"sync"
)

// Node-range sharding for the struct-of-arrays kernels. A shard owns a
// contiguous, word-aligned range of receiver rows [lo, hi): alignment to
// 64-node boundaries means two shards never write the same word of a
// packed per-receiver bitset, so workers need no locks, and the
// deterministic ascending-shard reduction of their integer counters makes
// results independent of the shard count (integer sums and maxima are
// associative and commutative; see DESIGN.md §14).

// resolveShards normalizes a shard-count request for n nodes: zero or one
// means sequential, negative means one shard per available CPU, and the
// count is clamped to the number of 64-node words so every shard owns at
// least one word.
func resolveShards(shards, n int) int {
	if shards < 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards < 1 {
		shards = 1
	}
	if words := (n + wordBits - 1) / wordBits; shards > words {
		shards = words
	}
	return shards
}

// shardRanges splits the n receiver rows into the given number of
// contiguous word-aligned ranges of near-equal size. The last range ends
// at n (only its tail may be a partial word).
func shardRanges(n, shards int) [][2]int {
	words := (n + wordBits - 1) / wordBits
	base, rem := words/shards, words%shards
	out := make([][2]int, 0, shards)
	lo := 0
	for s := 0; s < shards; s++ {
		w := base
		if s < rem {
			w++
		}
		hi := lo + w*wordBits
		if hi > n {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
		lo = hi
	}
	return out
}

// shardWorkers runs the rounds of a sharded kernel run on persistent
// goroutines, one per shard after the first. round(x) calls fn(si, x) for
// every shard si — shard 0 on the calling goroutine — and returns once all
// of them have finished, so each round is a barrier: nothing the caller
// writes next can race a shard's reads, and every shard's writes are
// visible to the caller. fn must write only what shard si owns.
type shardWorkers struct {
	fn   func(si, x int)
	work []chan int
	// done counts a worker once per round it has not finished and, from
	// stop on, once more until it has exited.
	done sync.WaitGroup
}

// startShardWorkers starts the workers of a run split into the given
// number of shards (at least two). The caller must call stop once its last
// round has returned.
func startShardWorkers(shards int, fn func(si, x int)) *shardWorkers {
	w := &shardWorkers{fn: fn, work: make([]chan int, shards-1)}
	for i := range w.work {
		ch := make(chan int, 1)
		w.work[i] = ch
		go func(si int) {
			defer w.done.Done()
			for x := range ch {
				fn(si, x)
				w.done.Done()
			}
		}(i + 1)
	}
	return w
}

// round runs fn(si, x) on every shard and waits for all of them.
func (w *shardWorkers) round(x int) {
	w.done.Add(len(w.work))
	for _, ch := range w.work {
		ch <- x
	}
	w.fn(0, x)
	w.done.Wait()
}

// stop retires the workers and returns once they have exited, so a run
// leaves no goroutine behind. No round may be in progress.
func (w *shardWorkers) stop() {
	w.done.Add(len(w.work))
	for _, ch := range w.work {
		close(ch)
	}
	w.done.Wait()
}
