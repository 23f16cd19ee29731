// Package selector implements CaPI's selector modules (§III-A): the building
// blocks of a selection pipeline. Each selector maps argument values —
// node sets, strings, numbers — to a node set over the whole-program call
// graph. The pipeline evaluator lives in internal/core; this package owns
// the individual selector semantics and the registry they are looked up in.
package selector

import (
	"fmt"
	"regexp"
	"strings"

	"capi/internal/callgraph"
)

// Value is an evaluated argument: *callgraph.Set, string, or float64.
type Value interface{}

// Context carries evaluation state shared by all selectors of a pipeline.
type Context struct {
	Graph *callgraph.Graph
}

// Func is the implementation of one selector type.
type Func func(ctx *Context, args []Value) (*callgraph.Set, error)

// Def describes a registered selector type.
type Def struct {
	Name string
	// Doc is a one-line description of the selector type. It documents the
	// registration; no command prints it.
	Doc  string
	Eval Func
}

// Registry maps selector type names to implementations.
type Registry struct {
	defs map[string]*Def
}

// NewRegistry returns a registry pre-populated with all built-in selectors.
func NewRegistry() *Registry {
	r := &Registry{defs: map[string]*Def{}}
	r.registerBuiltins()
	return r
}

// Register adds a selector definition; re-registering a name is an error.
func (r *Registry) Register(d *Def) error {
	if _, dup := r.defs[d.Name]; dup {
		return fmt.Errorf("selector: duplicate selector type %q", d.Name)
	}
	r.defs[d.Name] = d
	return nil
}

// Lookup returns the definition of the named selector type, or nil.
func (r *Registry) Lookup(name string) *Def { return r.defs[name] }

// ---- argument helpers ----

func argSet(name string, args []Value, i int) (*callgraph.Set, error) {
	if i >= len(args) {
		return nil, fmt.Errorf("selector %s: missing set argument %d", name, i+1)
	}
	s, ok := args[i].(*callgraph.Set)
	if !ok {
		return nil, fmt.Errorf("selector %s: argument %d must be a selector expression", name, i+1)
	}
	return s, nil
}

func argString(name string, args []Value, i int) (string, error) {
	if i >= len(args) {
		return "", fmt.Errorf("selector %s: missing string argument %d", name, i+1)
	}
	s, ok := args[i].(string)
	if !ok {
		return "", fmt.Errorf("selector %s: argument %d must be a string", name, i+1)
	}
	return s, nil
}

func argNumber(name string, args []Value, i int) (float64, error) {
	if i >= len(args) {
		return 0, fmt.Errorf("selector %s: missing numeric argument %d", name, i+1)
	}
	n, ok := args[i].(float64)
	if !ok {
		return 0, fmt.Errorf("selector %s: argument %d must be a number", name, i+1)
	}
	return n, nil
}

// compare evaluates `a op b` for the comparison-operator strings the DSL
// uses (">=", ">", "<=", "<", "==", "!=").
func compare(a float64, op string, b float64) (bool, error) {
	switch op {
	case ">=":
		return a >= b, nil
	case ">":
		return a > b, nil
	case "<=":
		return a <= b, nil
	case "<":
		return a < b, nil
	case "==", "=":
		return a == b, nil
	case "!=":
		return a != b, nil
	default:
		return false, fmt.Errorf("selector: unknown comparison operator %q", op)
	}
}

// matcher compiles pat for the named selector. Every match of a pattern
// begins with its literal prefix ("MPI_" for "^MPI_"), so a string that does
// not contain the prefix is rejected without running the regexp — over a
// whole-program graph that is nearly every string.
func matcher(name, pat string) (func(string) bool, error) {
	re, err := regexp.Compile(pat)
	if err != nil {
		return nil, fmt.Errorf("selector %s: bad pattern %q: %w", name, pat, err)
	}
	prefix, _ := re.LiteralPrefix()
	return func(s string) bool { return strings.Contains(s, prefix) && re.MatchString(s) }, nil
}

// filterSet returns the members of in satisfying pred.
func filterSet(in *callgraph.Set, pred func(*callgraph.Node) bool) *callgraph.Set {
	out := in.Graph().NewSet()
	in.ForEach(func(n *callgraph.Node) bool {
		if pred(n) {
			out.Add(n)
		}
		return true
	})
	return out
}

// metricSelector builds a selector filtering in by `metric(node) op n`
// with the DSL calling convention metric(cmp, n, input).
func metricSelector(name, doc string, metric func(*callgraph.Node) float64) *Def {
	return &Def{
		Name: name,
		Doc:  doc,
		Eval: func(ctx *Context, args []Value) (*callgraph.Set, error) {
			op, err := argString(name, args, 0)
			if err != nil {
				return nil, err
			}
			n, err := argNumber(name, args, 1)
			if err != nil {
				return nil, err
			}
			in, err := argSet(name, args, 2)
			if err != nil {
				return nil, err
			}
			var cmpErr error
			out := filterSet(in, func(nd *callgraph.Node) bool {
				ok, err := compare(metric(nd), op, n)
				if err != nil && cmpErr == nil {
					cmpErr = err
				}
				return ok
			})
			if cmpErr != nil {
				return nil, cmpErr
			}
			return out, nil
		},
	}
}

// flagSelector builds a selector keeping the members of its input that
// have the flag.
func flagSelector(name, doc string, flag func(*callgraph.Node) bool) *Def {
	return &Def{Name: name, Doc: doc, Eval: func(ctx *Context, args []Value) (*callgraph.Set, error) {
		in, err := argSet(name, args, 0)
		if err != nil {
			return nil, err
		}
		return filterSet(in, flag), nil
	}}
}

// stringSelector builds a selector filtering its input, the second
// argument, by the predicate keep makes of its first, a string.
func stringSelector(name, doc string, keep func(*callgraph.Graph, string) (func(*callgraph.Node) bool, error)) *Def {
	return &Def{Name: name, Doc: doc, Eval: func(ctx *Context, args []Value) (*callgraph.Set, error) {
		arg, err := argString(name, args, 0)
		if err != nil {
			return nil, err
		}
		in, err := argSet(name, args, 1)
		if err != nil {
			return nil, err
		}
		pred, err := keep(ctx.Graph, arg)
		if err != nil {
			return nil, err
		}
		return filterSet(in, pred), nil
	}}
}

// neighbourSelector builds a selector collecting the direct neighbours of
// its input's members: their callers or their callees.
func neighbourSelector(name, doc string, edges func(*callgraph.Graph, *callgraph.Node) []int32) *Def {
	return &Def{Name: name, Doc: doc, Eval: func(ctx *Context, args []Value) (*callgraph.Set, error) {
		in, err := argSet(name, args, 0)
		if err != nil {
			return nil, err
		}
		out := ctx.Graph.NewSet()
		in.ForEach(func(n *callgraph.Node) bool {
			for _, id := range edges(ctx.Graph, n) {
				out.AddID(int(id))
			}
			return true
		})
		return out, nil
	}}
}

func (r *Registry) registerBuiltins() {
	must := func(d *Def) {
		if err := r.Register(d); err != nil {
			//capi:panic-ok built-in registration at construction; a rejected Def is a build-time mistake
			panic(err)
		}
	}

	must(&Def{
		Name: "join",
		Doc:  "union of all argument sets",
		Eval: func(ctx *Context, args []Value) (*callgraph.Set, error) {
			if len(args) == 0 {
				return nil, fmt.Errorf("selector join: needs at least one argument")
			}
			out := ctx.Graph.NewSet()
			for i := range args {
				s, err := argSet("join", args, i)
				if err != nil {
					return nil, err
				}
				out.UnionWith(s)
			}
			return out, nil
		},
	})

	must(&Def{
		Name: "subtract",
		Doc:  "members of the first set not in the second",
		Eval: func(ctx *Context, args []Value) (*callgraph.Set, error) {
			a, err := argSet("subtract", args, 0)
			if err != nil {
				return nil, err
			}
			b, err := argSet("subtract", args, 1)
			if err != nil {
				return nil, err
			}
			return a.Subtract(b), nil
		},
	})

	must(&Def{
		Name: "intersect",
		Doc:  "intersection of all argument sets",
		Eval: func(ctx *Context, args []Value) (*callgraph.Set, error) {
			if len(args) == 0 {
				return nil, fmt.Errorf("selector intersect: needs at least one argument")
			}
			out, err := argSet("intersect", args, 0)
			if err != nil {
				return nil, err
			}
			out = out.Clone()
			for i := 1; i < len(args); i++ {
				s, err := argSet("intersect", args, i)
				if err != nil {
					return nil, err
				}
				out = out.Intersect(s)
			}
			return out, nil
		},
	})

	must(flagSelector("inSystemHeader", "functions defined in system headers",
		func(n *callgraph.Node) bool { return n.SystemHeader }))

	must(flagSelector("inlineSpecified", "functions carrying the `inline` keyword",
		func(n *callgraph.Node) bool { return n.Inline }))

	must(flagSelector("virtualSpecified", "virtual member functions",
		func(n *callgraph.Node) bool { return n.Virtual }))

	must(metricSelector("flops", "filter by floating-point operation count",
		func(n *callgraph.Node) float64 { return float64(n.Flops) }))
	must(metricSelector("loopDepth", "filter by maximum loop nesting depth",
		func(n *callgraph.Node) float64 { return float64(n.LoopDepth) }))
	must(metricSelector("statements", "filter by statement count",
		func(n *callgraph.Node) float64 { return float64(n.Statements) }))
	must(metricSelector("loc", "filter by lines of code",
		func(n *callgraph.Node) float64 { return float64(n.LOC) }))
	must(metricSelector("cyclomatic", "filter by cyclomatic complexity",
		func(n *callgraph.Node) float64 { return float64(n.Cyclomatic) }))

	must(stringSelector("byName", "functions whose name matches the regular expression",
		func(g *callgraph.Graph, pat string) (func(*callgraph.Node) bool, error) {
			match, err := matcher("byName", pat)
			return func(n *callgraph.Node) bool { return match(n.Name) || (n.Display != n.Name && match(n.Display)) }, err
		}))

	must(stringSelector("byUnit", "functions defined in the named link unit",
		func(g *callgraph.Graph, unit string) (func(*callgraph.Node) bool, error) {
			return func(n *callgraph.Node) bool { return g.Meta(n).Unit == unit }, nil
		}))

	must(stringSelector("byTU", "functions whose translation unit matches the regular expression",
		func(g *callgraph.Graph, pat string) (func(*callgraph.Node) bool, error) {
			match, err := matcher("byTU", pat)
			return func(n *callgraph.Node) bool { return match(g.Meta(n).TU) }, err
		}))

	must(&Def{
		Name: "callPathTo",
		Doc:  "functions on a call path from main to any function in the input",
		Eval: func(ctx *Context, args []Value) (*callgraph.Set, error) {
			in, err := argSet("callPathTo", args, 0)
			if err != nil {
				return nil, err
			}
			if ctx.Graph.Main == "" {
				return nil, fmt.Errorf("selector callPathTo: call graph has no entry point")
			}
			return ctx.Graph.OnCallPath(ctx.Graph.MainNode(), in), nil
		},
	})

	must(&Def{
		Name: "callPathFrom",
		Doc:  "functions reachable from any function in the input (input included)",
		Eval: func(ctx *Context, args []Value) (*callgraph.Set, error) {
			in, err := argSet("callPathFrom", args, 0)
			if err != nil {
				return nil, err
			}
			return ctx.Graph.Reachable(in, true), nil
		},
	})

	must(neighbourSelector("callers", "direct callers of the input functions", (*callgraph.Graph).Callers))

	must(neighbourSelector("callees", "direct callees of the input functions", (*callgraph.Graph).Callees))

	must(&Def{
		Name: "coarse",
		Doc:  "prune sole-caller callees of selected functions (optional second arg: critical set to retain)",
		Eval: func(ctx *Context, args []Value) (*callgraph.Set, error) {
			in, err := argSet("coarse", args, 0)
			if err != nil {
				return nil, err
			}
			var critical *callgraph.Set
			if len(args) > 1 {
				critical, err = argSet("coarse", args, 1)
				if err != nil {
					return nil, err
				}
			}
			if ctx.Graph.Main == "" {
				return nil, fmt.Errorf("selector coarse: call graph has no entry point")
			}
			return ctx.Graph.Coarse(ctx.Graph.MainNode(), in, critical), nil
		},
	})

	must(&Def{
		Name: "statementAggregation",
		Doc:  "functions whose aggregated statement count along call chains from main reaches the threshold",
		Eval: func(ctx *Context, args []Value) (*callgraph.Set, error) {
			threshold, err := argNumber("statementAggregation", args, 0)
			if err != nil {
				return nil, err
			}
			in, err := argSet("statementAggregation", args, 1)
			if err != nil {
				return nil, err
			}
			if ctx.Graph.Main == "" {
				return nil, fmt.Errorf("selector statementAggregation: call graph has no entry point")
			}
			agg := ctx.Graph.StatementAggregation(ctx.Graph.MainNode())
			return filterSet(in, func(n *callgraph.Node) bool {
				return float64(agg[n.ID()]) >= threshold
			}), nil
		},
	})
}
