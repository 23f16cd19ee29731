package workload

import "capi/internal/prog"

// Endpoint describes one route of the simulated web service: the handler
// function rooting its instrumented call tree, its share of the traffic
// mix, and the lognormal shape of its per-request work multiplier. The
// middleware package serves these routes over net/http, drawing a
// multiplier per request (median exp(LatMu), spread LatSigma) and scaling
// the handler tree's OpWork durations by it — fixed call counts, variable
// work, the classic web-latency shape where the instrumentation cost per
// request is constant while the useful work has a heavy tail.
type Endpoint struct {
	// Route is the net/http mux pattern ("GET /api/feed").
	Route string
	// Handler names the root function of the endpoint's call tree.
	Handler string
	// Weight is the endpoint's relative share of generated traffic.
	Weight int
	// LatMu and LatSigma parameterize the lognormal work multiplier:
	// multiplier = exp(LatMu + LatSigma·N(0,1)).
	LatMu, LatSigma float64
}

// WebserviceEndpoints returns the route table of the Webservice program.
// Order is fixed (hot endpoints first) and the handler names match the
// generated functions exactly.
func WebserviceEndpoints() []Endpoint {
	return []Endpoint{
		{Route: "GET /api/feed", Handler: "handle_get_feed", Weight: 35, LatSigma: 0.55},
		{Route: "GET /api/users/{id}", Handler: "handle_get_user", Weight: 25, LatSigma: 0.50},
		{Route: "POST /api/orders", Handler: "handle_create_order", Weight: 15, LatSigma: 0.45},
		{Route: "GET /api/search", Handler: "handle_search", Weight: 10, LatSigma: 0.60},
		{Route: "GET /api/assets/{id}", Handler: "handle_get_asset", Weight: 10, LatSigma: 0.50},
		{Route: "GET /healthz", Handler: "handle_healthz", Weight: 5, LatSigma: 0.20},
	}
}

// Webservice returns the request-serving workload: a ~60-function web
// service with the endpoint mix of WebserviceEndpoints. The hot endpoints
// (feed, search) call tiny leaf functions in tight loops — item scoring,
// feed rendering, row decoding — so full instrumentation costs about as
// much as the useful work, exactly the shape the SLO-driven adapt ladder
// exists to narrow. The cold endpoints (healthz, assets) are cheap and
// shallow. Work values are virtual nanoseconds per call; one simulated
// call stands in for many real invocations, like the HPC generators.
func Webservice() *prog.Program {
	b := newBuilder("webservice", "main", 23)
	b.p.MustAddUnit("webservice.exe", prog.Executable)
	b.addSystemLibs(false)
	exe := "webservice.exe"

	// Tiny hot leaves: called from loops, low duration, high event count —
	// the functions the SLO controller demotes and deselects first.
	b.fn(&prog.Function{Name: "cache_key", Unit: exe, TU: "cache.c", Statements: 3, Inline: false,
		Ops: []prog.Op{prog.Work(200)}})
	b.fn(&prog.Function{Name: "json_field", Unit: exe, TU: "json.c", Statements: 4,
		Ops: []prog.Op{prog.Work(250)}})
	b.fn(&prog.Function{Name: "row_decode", Unit: exe, TU: "db.c", Statements: 10,
		Ops: []prog.Op{prog.Work(700)}})
	b.fn(&prog.Function{Name: "score_item", Unit: exe, TU: "rank.c", Statements: 12, Flops: 9,
		Ops: []prog.Op{prog.Work(900)}})
	b.fn(&prog.Function{Name: "render_feed_item", Unit: exe, TU: "feed.c", Statements: 16,
		Ops: []prog.Op{prog.Work(1200), prog.Call("json_field", 2)}})
	b.fn(&prog.Function{Name: "hash_token", Unit: exe, TU: "auth.c", Statements: 8, Flops: 4,
		Ops: []prog.Op{prog.Work(1500)}})

	// Shared infrastructure tier.
	b.fn(&prog.Function{Name: "cache_get", Unit: exe, TU: "cache.c", Statements: 14,
		Ops: []prog.Op{prog.Work(1800), prog.Call("cache_key", 1)}})
	b.fn(&prog.Function{Name: "cache_put", Unit: exe, TU: "cache.c", Statements: 15,
		Ops: []prog.Op{prog.Work(2400), prog.Call("cache_key", 1)}})
	b.fn(&prog.Function{Name: "sql_parse", Unit: exe, TU: "db.c", Statements: 30, Cyclomatic: 8,
		Ops: []prog.Op{prog.Work(3500)}})
	b.fn(&prog.Function{Name: "db_query", Unit: exe, TU: "db.c", Statements: 26,
		Ops: []prog.Op{prog.Work(12000), prog.Call("sql_parse", 1), prog.Call("row_decode", 16)}})
	b.fn(&prog.Function{Name: "db_exec", Unit: exe, TU: "db.c", Statements: 22,
		Ops: []prog.Op{prog.Work(9000), prog.Call("sql_parse", 1)}})
	b.fn(&prog.Function{Name: "session_lookup", Unit: exe, TU: "auth.c", Statements: 12,
		Ops: []prog.Op{prog.Work(2500), prog.Call("cache_get", 1)}})
	b.fn(&prog.Function{Name: "authenticate", Unit: exe, TU: "auth.c", Statements: 20, Cyclomatic: 5,
		Ops: []prog.Op{prog.Work(2000), prog.Call("hash_token", 1), prog.Call("session_lookup", 1)}})
	b.fn(&prog.Function{Name: "rate_limit_check", Unit: exe, TU: "middleware.c", Statements: 9,
		Ops: []prog.Op{prog.Work(700), prog.Call("cache_key", 1)}})
	b.fn(&prog.Function{Name: "validate_input", Unit: exe, TU: "middleware.c", Statements: 24, Cyclomatic: 7,
		Ops: []prog.Op{prog.Work(4000)}})
	b.fn(&prog.Function{Name: "json_decode", Unit: exe, TU: "json.c", Statements: 28,
		Ops: []prog.Op{prog.Work(5000)}})
	b.fn(&prog.Function{Name: "json_encode", Unit: exe, TU: "json.c", Statements: 26,
		Ops: []prog.Op{prog.Work(7000), prog.Call("json_field", 8)}})
	b.fn(&prog.Function{Name: "compress_body", Unit: exe, TU: "middleware.c", Statements: 18, LoopDepth: 1,
		Ops: []prog.Op{prog.Work(15000)}})
	b.fn(&prog.Function{Name: "log_request", Unit: exe, TU: "obs.c", Statements: 10,
		Ops: []prog.Op{prog.Work(1200)}})
	b.fn(&prog.Function{Name: "record_metrics", Unit: exe, TU: "obs.c", Statements: 7,
		Ops: []prog.Op{prog.Work(500)}})
	b.fn(&prog.Function{Name: "index_scan", Unit: exe, TU: "search.c", Statements: 40, LoopDepth: 2, Flops: 20,
		Ops: []prog.Op{prog.Work(35000)}})
	b.fn(&prog.Function{Name: "rank_results", Unit: exe, TU: "rank.c", Statements: 20, LoopDepth: 1,
		Ops: []prog.Op{prog.Work(6000), prog.Call("score_item", 256)}})

	// Endpoint handlers — the per-route instrumented call trees.
	b.fn(&prog.Function{Name: "handle_healthz", Unit: exe, TU: "handlers.c", Statements: 6,
		Ops: []prog.Op{prog.Work(800), prog.Call("record_metrics", 1)}})
	b.fn(&prog.Function{Name: "handle_get_asset", Unit: exe, TU: "handlers.c", Statements: 15,
		Ops: []prog.Op{
			prog.Work(2000), prog.Call("rate_limit_check", 1), prog.Call("cache_get", 1),
			prog.Call("compress_body", 1), prog.Call("log_request", 1), prog.Call("record_metrics", 1),
		}})
	b.fn(&prog.Function{Name: "handle_get_user", Unit: exe, TU: "handlers.c", Statements: 24,
		Ops: []prog.Op{
			prog.Work(3000), prog.Call("rate_limit_check", 1), prog.Call("authenticate", 1),
			prog.Call("cache_get", 1), prog.Call("db_query", 1), prog.Call("json_encode", 1),
			prog.Call("log_request", 1), prog.Call("record_metrics", 1),
		}})
	b.fn(&prog.Function{Name: "handle_create_order", Unit: exe, TU: "handlers.c", Statements: 34, Cyclomatic: 9,
		Ops: []prog.Op{
			prog.Work(4000), prog.Call("rate_limit_check", 1), prog.Call("authenticate", 1),
			prog.Call("json_decode", 1), prog.Call("validate_input", 1), prog.Call("db_exec", 3),
			prog.Call("cache_put", 1), prog.Call("json_encode", 1),
			prog.Call("log_request", 1), prog.Call("record_metrics", 1),
		}})
	b.fn(&prog.Function{Name: "handle_search", Unit: exe, TU: "handlers.c", Statements: 30,
		Ops: []prog.Op{
			prog.Work(5000), prog.Call("rate_limit_check", 1), prog.Call("authenticate", 1),
			prog.Call("json_decode", 1), prog.Call("index_scan", 1), prog.Call("rank_results", 1),
			prog.Call("json_encode", 1), prog.Call("compress_body", 1),
			prog.Call("log_request", 1), prog.Call("record_metrics", 1),
		}})
	b.fn(&prog.Function{Name: "handle_get_feed", Unit: exe, TU: "handlers.c", Statements: 40,
		Ops: []prog.Op{
			prog.Work(6000), prog.Call("rate_limit_check", 1), prog.Call("authenticate", 1),
			prog.Call("cache_get", 2), prog.Call("db_query", 2), prog.Call("rank_results", 1),
			prog.Call("render_feed_item", 96), prog.Call("json_encode", 1),
			prog.Call("compress_body", 1), prog.Call("log_request", 1), prog.Call("record_metrics", 1),
		}})

	// Setup and the phase driver: main replays the endpoint mix in the
	// WebserviceEndpoints weights, so an ordinary Instance.Run exercises
	// the same trees HTTP traffic does. One allreduce per wave stands in
	// for metric aggregation across replicas (gives TALP an MPI region).
	b.fn(&prog.Function{Name: "parse_config", Unit: exe, TU: "setup.c", Statements: 16,
		Ops: []prog.Op{prog.Work(20000), prog.Call("getenv", 3)}})
	b.fn(&prog.Function{Name: "warm_caches", Unit: exe, TU: "setup.c", Statements: 14, LoopDepth: 1,
		Ops: []prog.Op{prog.Work(60000), prog.Call("cache_put", 8)}})
	b.fn(&prog.Function{Name: "sync_metrics", Unit: exe, TU: "obs.c", Statements: 9,
		Ops: []prog.Op{prog.Work(1000), prog.MPICall("MPI_Allreduce", 64)}})

	mainOps := []prog.Op{
		prog.Call("parse_config", 1),
		prog.MPICall("MPI_Init", 0),
		prog.Call("warm_caches", 1),
	}
	for wave := 0; wave < 8; wave++ {
		for _, ep := range WebserviceEndpoints() {
			mainOps = append(mainOps, prog.Call(ep.Handler, (ep.Weight+9)/10))
		}
		mainOps = append(mainOps, prog.Call("sync_metrics", 1))
	}
	mainOps = append(mainOps, prog.MPICall("MPI_Finalize", 0))
	b.fn(&prog.Function{Name: "main", Unit: exe, TU: "main.c", Statements: 50, Ops: mainOps})

	return b.p
}
