// HTTP-service demo: serve real request traffic through instrumented
// function trees and let the tail-latency SLO controller trade
// instrumentation coverage for latency, live.
//
// A synthetic web service (capi.Webservice: feed, user, order, search,
// asset and health endpoints) is started fully instrumented with the
// adaptation controller in SLO mode: "keep every endpoint's p99 at or
// under the target with maximum coverage". The capi/middleware service
// executes each request's handler tree on a virtual clock, and the
// inline extrae backend charges its real trace-write cost per event to
// that same clock — so at full coverage the hot feed endpoint (hundreds
// of events per request) misses the SLO by a wide margin. As traffic
// flows, the controller walks the demote → deselect ladder one function
// at a time (cheapest information lost first) until the measured p99
// meets the target, then stops: the remaining functions stay
// instrumented.
package main

import (
	"fmt"
	"log"
	"math/rand"

	capi "capi"
	"capi/middleware"
)

func main() {
	session, err := capi.NewAppSession("webservice", 0)
	if err != nil {
		log.Fatal(err)
	}

	// Full initial instrumentation, 4 middleware workers, SLO mode:
	// p99 ≤ 5ms per endpoint. The extrae trace write costs 140µs per
	// event, so at full coverage the feed endpoint (~600 enter/exit
	// pairs per request) is two orders of magnitude over the target;
	// with its tree deselected the work alone is ~2ms, so a narrowed
	// selection can meet it.
	inst, err := session.Start(nil, capi.RunOptions{
		PatchAll:    true,
		Backends:    []string{"extrae"},
		Ranks:       2,
		HTTPWorkers: 4,
		Adapt:       &capi.AdaptOptions{SLOTargetP99Ns: 5_000_000},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer inst.Close()

	svc, err := middleware.New(inst, session.Program(), capi.WebserviceEndpoints(), middleware.Options{Workers: 4})
	if err != nil {
		log.Fatal(err)
	}

	report := func(tag string) {
		st := inst.Status()
		fmt.Printf("--- %s ---\n", tag)
		for _, ep := range st.HTTP.Endpoints {
			if ep.Requests == 0 {
				continue
			}
			fmt.Printf("%-22s %5d reqs  p99 %6.2fms  instrumented %d/%d (%d demoted)\n",
				ep.Endpoint, ep.Requests, ep.P99Ms, ep.ActiveFunctions, ep.TotalFunctions, ep.DemotedFunctions)
		}
		if st.SLO != nil {
			for _, ep := range st.SLO.Endpoints {
				if ep.Requests == 0 {
					continue
				}
				fmt.Printf("%-22s SLO met=%v ladder=%d dropped=%v\n", ep.Endpoint, ep.Met, ep.Steps, ep.Dropped)
			}
		}
	}

	// Drive weighted traffic. Each Do executes the endpoint's full
	// instrumented call tree on the worker's virtual clock; the observed
	// latency feeds the SLO controller, which narrows between requests.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		if _, err := svc.Do(svc.RandomRoute(rng)); err != nil {
			log.Fatal(err)
		}
	}
	report("after 200 requests")

	for i := 0; i < 29800; i++ {
		if _, err := svc.Do(svc.RandomRoute(rng)); err != nil {
			log.Fatal(err)
		}
	}
	report("after 30000 requests")
	st := inst.Status()
	fmt.Printf("reconfigs: %d, events: %d\n", st.Reconfigs, st.Events)
}
