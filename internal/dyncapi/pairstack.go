package dyncapi

// pairStack is a rank's enter-decision stack, one bit per open frame (set
// when the enter was passed on), so the matching exit follows the same
// decision: the sampler keeps one per (function, rank), the async pipeline
// one per rank. The innermost frame is bit 0 of the inline word; every 64
// frames the full word moves to a spill slice, so no nesting depth loses a
// decision. The owner holds the spill, off the line its per-event fields
// share, and passes it in.
type pairStack struct {
	depth int    // open frames
	bits  uint64 // decisions of the innermost frames; the spill holds the rest
}

// push records the decision of a frame being entered.
func (s *pairStack) push(pass bool, spill *[]uint64) {
	if s.depth&63 == 0 && s.depth != 0 {
		//capi:hotpath-ok amortized: the spill grows to the deepest nesting once, then never again
		*spill = append(*spill, s.bits)
	}
	s.depth++
	s.bits <<= 1
	if pass {
		s.bits |= 1
	}
}

// pop removes the innermost frame and returns its decision; ok is false on
// an empty stack, an exit with no recorded enter.
func (s *pairStack) pop(spill *[]uint64) (pass, ok bool) {
	if s.depth == 0 {
		return false, false
	}
	pass = s.bits&1 == 1
	s.bits >>= 1
	s.depth--
	if s.depth&63 == 0 && s.depth != 0 {
		n := len(*spill) - 1
		s.bits, *spill = (*spill)[n], (*spill)[:n]
	}
	return pass, true
}
