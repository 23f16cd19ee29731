// Fleet federation demo: one coordinator steering three capi serve
// instances as a single system.
//
// Three members run the LULESH stand-in (4 simulated ranks each) behind
// their own control planes; the coordinator (internal/fleet) discovers
// them through self-registration, fans a re-selection out to all of them
// with one POST, and merges the read side back: /v1/fleet/status rolls up
// the members' counters, and /v1/fleet/report concatenates every member's
// per-rank TALP times and recomputes the POP metrics over the federated
// 12-rank job — a mean of the members' own efficiencies would be wrong,
// so only the raw rank times cross the wire.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	capi "capi"
	"capi/internal/ctl"
	"capi/internal/fleet"
)

const wideSpec = `!import("mpi.capi")
excluded = join(inSystemHeader(%%), inlineSpecified(%%))
subtract(%mpi_comm, %excluded)
`

const narrowSpec = `!import("mpi.capi")
excluded = join(inSystemHeader(%%), inlineSpecified(%%))
coarse(subtract(%mpi_comm, %excluded))
`

func main() {
	// The coordinator. In production this is `capi fleet`, a separate
	// long-lived process.
	coord, err := fleet.New(fleet.Options{TTL: 10 * time.Second})
	if err != nil {
		log.Fatal(err)
	}
	defer coord.Close()
	coordLn := listen()
	go http.Serve(coordLn, coord) //nolint:errcheck
	coordURL := "http://" + coordLn.Addr().String()
	fmt.Printf("coordinator on %s\n", coordURL)

	// Three members, each its own session + instance + control plane —
	// in production three `capi serve -fleet <coordinator>` processes.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var bases []string
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("member-%d", i)
		base := startMember(name)
		bases = append(bases, base)
		go fleet.Heartbeat(ctx, coordURL,
			fleet.RegisterRequest{URL: base, Name: name, App: "lulesh"},
			time.Second, nil)
	}
	for coordStatus(coordURL).Rollup.Members < 3 {
		time.Sleep(5 * time.Millisecond)
	}
	fmt.Printf("3 members registered\n\n")

	// Each member executes a phase under the wide selection.
	for _, base := range bases {
		post(base+"/v1/run", "application/json", `{"wait":true}`)
	}

	// One POST to the coordinator re-selects the whole fleet.
	resp, err := http.Post(coordURL+"/v1/select", "text/plain", strings.NewReader(narrowSpec))
	if err != nil {
		log.Fatal(err)
	}
	var fr fleet.FanoutResponse
	decode(resp, &fr)
	fmt.Printf("fan-out re-select: %d/%d members applied (divergent: %v)\n",
		len(fr.Applied), fr.Members, fr.Divergent)

	// Another phase per member under the narrow selection, then the merged
	// report: per-backend documents keyed by member, and fleet-wide POP.
	for _, base := range bases {
		post(base+"/v1/run", "application/json", `{"wait":true}`)
	}
	rresp, err := http.Get(coordURL + "/v1/fleet/report")
	if err != nil {
		log.Fatal(err)
	}
	var rep fleet.FleetReportResponse
	decode(rresp, &rep)
	fmt.Printf("\nfleet report: %d members, federated world of %d ranks\n",
		len(rep.Members), rep.WorldSize)
	for _, reg := range rep.Regions {
		fmt.Printf("  %-22s ranks %2d  PE %.3f  LB %.3f  CommE %.3f\n",
			reg.Name, reg.Ranks, reg.ParallelEfficiency, reg.LoadBalance,
			reg.CommunicationEfficiency)
	}

	st := coordStatus(coordURL)
	fmt.Printf("\nrollup: %d runs, %d events, %d re-selections across the fleet\n",
		st.Rollup.Runs, st.Rollup.Events, st.Rollup.Reconfigs)
}

// startMember builds one live LULESH instance and mounts its control
// plane on a loopback listener, returning the base URL.
func startMember(name string) string {
	session, err := capi.NewSession(capi.Lulesh(capi.LuleshOptions{Timesteps: 600}),
		capi.SessionOptions{OptLevel: 3})
	if err != nil {
		log.Fatal(err)
	}
	sel, err := session.Select(wideSpec)
	if err != nil {
		log.Fatal(err)
	}
	inst, err := session.Start(sel, capi.RunOptions{Backends: []string{"talp"}, Ranks: 4})
	if err != nil {
		log.Fatal(err)
	}
	ln := listen()
	go http.Serve(ln, ctl.New(session, inst, name)) //nolint:errcheck
	return "http://" + ln.Addr().String()
}

func listen() net.Listener {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	return ln
}

func coordStatus(coordURL string) fleet.FleetStatusResponse {
	resp, err := http.Get(coordURL + "/v1/fleet/status")
	if err != nil {
		log.Fatal(err)
	}
	var st fleet.FleetStatusResponse
	decode(resp, &st)
	return st
}

func decode(resp *http.Response, v any) {
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		log.Fatal(err)
	}
}

func post(url, ctype, body string) {
	resp, err := http.Post(url, ctype, strings.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode >= 300 {
		log.Fatalf("POST %s: status %d", url, resp.StatusCode)
	}
}
