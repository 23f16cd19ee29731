// Package core is the CaPI engine — the paper's primary contribution. It
// evaluates a user-defined selection pipeline (internal/spec) over a
// whole-program call graph (internal/callgraph) using the selector registry
// (internal/selector), applies the post-processing passes the paper
// introduces — inlining compensation (§V-E) — and emits the resulting
// instrumentation configuration (internal/ic).
package core

import (
	"fmt"
	"time"

	"capi/internal/callgraph"
	"capi/internal/ic"
	"capi/internal/selector"
	"capi/internal/spec"
)

// SymbolOracle answers whether a function symbol is present in the linked
// binary or any of its shared objects. The compiler's Build implements it;
// the inlining-compensation pass uses it to approximate the set of inlined
// functions ("if a function symbol cannot be found, it has been inlined at
// all call sites", §V-E).
type SymbolOracle interface {
	HasSymbol(name string) bool
}

// Options configures a pipeline run.
type Options struct {
	// Symbols enables the inlining-compensation post-pass when non-nil.
	Symbols SymbolOracle
	// Loader resolves !import directives; defaults to the built-in modules.
	Loader spec.ModuleLoader
}

// Result is the outcome of a pipeline run, carrying the Table I statistics.
type Result struct {
	// Pre is the entry selector's output before post-processing
	// (the paper's "#selected pre").
	Pre *callgraph.Set
	// Selected is the selection after inlined functions were removed
	// (the paper's "#selected").
	Selected *callgraph.Set
	// Final is Selected plus the compensation functions — the IC content.
	Final *callgraph.Set
	// RemovedInlined lists functions dropped because their symbol is gone.
	RemovedInlined []string
	// AddedCompensation lists the first non-inlined callers added so the
	// removed functions remain measured (the paper's "#added").
	AddedCompensation []string
	// Named holds every named selector instance's set, for inspection.
	Named map[string]*callgraph.Set
	// SelectionTime is the wall-clock duration of the pipeline evaluation
	// including post-processing (Table I's "Time" column).
	SelectionTime time.Duration
}

// IC materializes the final selection as an instrumentation configuration.
func (r *Result) IC(app, specName string) *ic.Config {
	return ic.New(app, specName, r.Final.Names())
}

// Engine evaluates selection pipelines over one call graph.
type Engine struct {
	graph *callgraph.Graph
	reg   *selector.Registry
}

// NewEngine returns an engine over g using the built-in selector registry.
func NewEngine(g *callgraph.Graph) *Engine {
	return &Engine{graph: g, reg: selector.NewRegistry()}
}

// Graph returns the call graph the engine operates on.
func (e *Engine) Graph() *callgraph.Graph { return e.graph }

// RunSource parses, expands and evaluates a specification source.
func (e *Engine) RunSource(src string, opts Options) (*Result, error) {
	f, err := spec.Parse(src)
	if err != nil {
		return nil, err
	}
	return e.RunFile(f, opts)
}

// RunFile expands and evaluates a parsed specification.
func (e *Engine) RunFile(f *spec.File, opts Options) (*Result, error) {
	start := time.Now()
	loader := opts.Loader
	if loader == nil {
		loader = spec.BuiltinModules{}
	}
	expanded, err := spec.Expand(f, loader)
	if err != nil {
		return nil, err
	}

	ev := &evaluator{
		ctx: &selector.Context{Graph: e.graph},
		reg: e.reg,
		env: map[string]*callgraph.Set{},
	}
	var last *callgraph.Set
	for _, stmt := range expanded.Stmts {
		switch s := stmt.(type) {
		case *spec.AssignStmt:
			if _, dup := ev.env[s.Name]; dup {
				return nil, fmt.Errorf("spec:%s: redefinition of selector instance %q", s.Pos(), s.Name)
			}
			set, err := ev.evalSet(s.X)
			if err != nil {
				return nil, err
			}
			ev.env[s.Name] = set
			last = set
		case *spec.ExprStmt:
			set, err := ev.evalSet(s.X)
			if err != nil {
				return nil, err
			}
			last = set
		case *spec.ImportStmt:
			return nil, fmt.Errorf("spec:%s: unexpanded import survived expansion", s.Pos())
		}
	}
	if last == nil {
		return nil, fmt.Errorf("spec: empty specification (no entry selector)")
	}

	res := &Result{
		Pre:   last,
		Named: ev.env,
	}
	if opts.Symbols != nil {
		selected, final, removed, added := compensateInlining(e.graph, last, opts.Symbols)
		res.Selected = selected
		res.Final = final
		res.RemovedInlined = removed
		res.AddedCompensation = added
	} else {
		res.Selected = last
		res.Final = last
	}
	res.SelectionTime = time.Since(start)
	return res, nil
}

// evaluator walks selector expressions.
type evaluator struct {
	ctx      *selector.Context
	reg      *selector.Registry
	env      map[string]*callgraph.Set
	universe *callgraph.Set
}

func (ev *evaluator) evalSet(x spec.Expr) (*callgraph.Set, error) {
	v, err := ev.evalValue(x)
	if err != nil {
		return nil, err
	}
	s, ok := v.(*callgraph.Set)
	if !ok {
		return nil, fmt.Errorf("spec:%s: expression is not a selector", x.Pos())
	}
	return s, nil
}

func (ev *evaluator) evalValue(x spec.Expr) (selector.Value, error) {
	switch n := x.(type) {
	case *spec.AllExpr:
		if ev.universe == nil {
			ev.universe = ev.ctx.Graph.UniverseSet()
		}
		return ev.universe, nil
	case *spec.RefExpr:
		s, ok := ev.env[n.Name]
		if !ok {
			return nil, fmt.Errorf("spec:%s: unknown selector instance %%%s", n.Pos(), n.Name)
		}
		return s, nil
	case *spec.StringLit:
		return n.Val, nil
	case *spec.NumberLit:
		return n.Val, nil
	case *spec.CallExpr:
		def := ev.reg.Lookup(n.Fn)
		if def == nil {
			return nil, fmt.Errorf("spec:%s: unknown selector type %q", n.Pos(), n.Fn)
		}
		args := make([]selector.Value, len(n.Args))
		for i, a := range n.Args {
			v, err := ev.evalValue(a)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		out, err := def.Eval(ev.ctx, args)
		if err != nil {
			return nil, fmt.Errorf("spec:%s: %w", n.Pos(), err)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("spec:%s: unsupported expression", x.Pos())
	}
}

// compensateInlining implements the paper's §V-E post-processing: selected
// functions whose symbol is absent from the binary and all DSOs are assumed
// to have been inlined at every call site; they are removed from the
// selection, and their first non-inlined callers (found by walking caller
// edges through other symbol-less functions) are added so their execution
// remains covered by the measurement.
func compensateInlining(g *callgraph.Graph, sel *callgraph.Set, sym SymbolOracle) (selected, final *callgraph.Set, removed, added []string) {
	selected = sel.Clone()
	var inlined []*callgraph.Node
	sel.ForEach(func(n *callgraph.Node) bool {
		if !sym.HasSymbol(n.Name) {
			inlined = append(inlined, n)
		}
		return true
	})
	for _, n := range inlined {
		selected.Remove(n)
		removed = append(removed, n.Name)
	}
	final = selected.Clone()
	visited := g.NewSet()
	var queue []*callgraph.Node
	for _, n := range inlined {
		// BFS up the caller edges, stopping at the first non-inlined
		// caller on each path.
		queue = append(queue[:0], n)
		for head := 0; head < len(queue); head++ {
			cur := queue[head]
			for _, id := range g.Callers(cur) {
				caller := g.NodeByID(int(id))
				if visited.Has(caller) {
					continue
				}
				visited.Add(caller)
				if sym.HasSymbol(caller.Name) {
					if !final.Has(caller) {
						final.Add(caller)
						added = append(added, caller.Name)
					}
					continue
				}
				queue = append(queue, caller)
			}
		}
	}
	return selected, final, removed, added
}
