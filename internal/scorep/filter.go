package scorep

import (
	"fmt"
	"io"
	"strings"
)

// Filter is a Score-P region filter: an ordered list of EXCLUDE/INCLUDE
// rules with shell-style '*' wildcards. The last matching rule wins; names
// matching no rule are included.
type Filter struct {
	rules []filterRule
}

type filterRule struct {
	exclude bool
	pattern string
}

// NewFilter returns an empty (all-inclusive) filter.
func NewFilter() *Filter { return &Filter{} }

// Exclude appends an EXCLUDE rule.
func (f *Filter) Exclude(pattern string) *Filter {
	f.rules = append(f.rules, filterRule{exclude: true, pattern: pattern})
	return f
}

// Include appends an INCLUDE rule.
func (f *Filter) Include(pattern string) *Filter {
	f.rules = append(f.rules, filterRule{exclude: false, pattern: pattern})
	return f
}

// Excluded reports whether the region name is filtered out.
func (f *Filter) Excluded(name string) bool {
	excluded := false
	for _, r := range f.rules {
		if matchPattern(r.pattern, name) {
			excluded = r.exclude
		}
	}
	return excluded
}

// matchPattern matches a name against a pattern with '*' wildcards.
func matchPattern(pattern, name string) bool {
	if pattern == "*" {
		return true
	}
	parts := strings.Split(pattern, "*")
	if len(parts) == 1 {
		return pattern == name
	}
	if !strings.HasPrefix(name, parts[0]) {
		return false
	}
	name = name[len(parts[0]):]
	for i := 1; i < len(parts)-1; i++ {
		idx := strings.Index(name, parts[i])
		if idx < 0 {
			return false
		}
		name = name[idx+len(parts[i]):]
	}
	return strings.HasSuffix(name, parts[len(parts)-1])
}

// WriteTo serializes the filter in the Score-P filter-file syntax.
func (f *Filter) WriteTo(w io.Writer) (int64, error) {
	var total int64
	n, err := fmt.Fprintln(w, "SCOREP_REGION_NAMES_BEGIN")
	total += int64(n)
	if err != nil {
		return total, err
	}
	for _, r := range f.rules {
		verb := "INCLUDE"
		if r.exclude {
			verb = "EXCLUDE"
		}
		n, err := fmt.Fprintf(w, "  %s %s\n", verb, r.pattern)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	n, err = fmt.Fprintln(w, "SCOREP_REGION_NAMES_END")
	total += int64(n)
	return total, err
}
