package main

import (
	"math/rand"
	"sort"
)

// Generators. Everything the program under test sees comes out of these
// functions, and all of them are pure functions of the seed.

const (
	// zipfS is the skew of the function-ID distribution of every dispatch
	// stream.
	zipfS = 1.1
	// maxDepth bounds the nesting of a generated stream.
	maxDepth = 8
	// advanceNs is the virtual work between two events.
	advanceNs = 100
	// batchEvents is the unit the dispatch generators time and pace.
	batchEvents = 256
)

// pickIDs draws a working set of n function IDs from the program's packed
// IDs. The order is the Zipf rank: ids[0] is the hottest function.
func pickIDs(byName map[string]int32, n int, seed int64) []int32 {
	all := make([]int32, 0, len(byName))
	for _, id := range byName {
		all = append(all, id)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	shuffleIDs(all, seed)
	return all[:min(n, len(all))]
}

func shuffleIDs(ids []int32, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
}

// An event stream is a sequence of correctly nested enter/exit events: a
// value v >= 0 enters function v, a value v < 0 exits function ^v. A stream
// starts and ends at depth 0, so it can be replayed back to back.
type stream []int32

// genStream generates n events (n rounded down to even) over ids,
// Zipf-distributed, with a random-walk nesting depth in [0, maxDepth].
func genStream(seed int64, ids []int32, n int) stream {
	n &^= 1
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(ids)-1))
	out := make(stream, 0, n)
	var stack [maxDepth]int32
	depth := 0
	for len(out) < n {
		// An enter needs room for its own exit and for closing every open
		// frame: left-depth stays even, so depth+2 <= left is exact.
		left := n - len(out)
		canEnter := depth < maxDepth && depth+2 <= left
		if canEnter && (depth == 0 || rng.Intn(2) == 0) {
			id := ids[zipf.Uint64()]
			stack[depth] = id
			depth++
			out = append(out, id)
		} else {
			depth--
			out = append(out, ^stack[depth])
		}
	}
	return out
}

// enters counts the enter events of a stream.
func (s stream) enters() (n int64) {
	for _, v := range s {
		if v >= 0 {
			n++
		}
	}
	return n
}

// genRoutes draws n routes from the service's weighted endpoint mix.
func genRoutes(seed int64, n int, draw func(*rand.Rand) string) []string {
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	for i := range out {
		out[i] = draw(rng)
	}
	return out
}
