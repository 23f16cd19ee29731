// Control-plane demo: re-selects a *running* LULESH phase over HTTP.
//
// The in-process Fig. 1 loop (see examples/refinement-loop) needs the
// refining code to live inside the application. Here the loop is driven
// remotely instead: a control-plane server (internal/ctl) is mounted over a
// live instance, a long phase is started asynchronously with POST /v1/run,
// and while the ranks execute, a narrower selection is POSTed to
// /v1/select — the server compiles the spec, diffs the patched set and
// re-patches only the delta, returning the ReconfigReport to the remote
// caller. The phase is never restarted; /metrics shows the re-selection.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	capi "capi"
	"capi/internal/ctl"
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
	// A live LULESH instance with a deliberately broad initial selection.
	session, err := capi.NewSession(capi.Lulesh(capi.LuleshOptions{Timesteps: 12000}),
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

	// Mount the control plane on a loopback listener — in production this
	// is `capi serve`, a separate long-lived process.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(ln, ctl.New(session, inst, "lulesh")) //nolint:errcheck
	base := "http://" + ln.Addr().String()
	fmt.Printf("control plane on %s\n", base)
	fmt.Printf("initial selection: %d functions patched\n\n", inst.Status().Patched)

	// Kick off a long phase; the POST returns immediately. Escape on
	// Runs > 0 too, in case the phase outruns the polling.
	post(base+"/v1/run", `{"wait":false}`)
	for st := status(base); !st.Running && st.Runs == 0; st = status(base) {
		if st.LastError != "" {
			log.Fatalf("phase failed: %s", st.LastError)
		}
		time.Sleep(time.Millisecond)
	}
	fmt.Println("phase executing; narrowing the selection over HTTP…")

	// Re-select mid-phase: raw spec source, like `curl --data-binary @spec`.
	resp, err := http.Post(base+"/v1/select", "text/plain", strings.NewReader(narrowSpec))
	if err != nil {
		log.Fatal(err)
	}
	var sr ctl.SelectResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("reconfigured live: -%d +%d functions (%d kept), %d sleds re-patched in %d mprotect windows\n",
		sr.Report.Unpatched, sr.Report.Patched, sr.Report.Kept,
		sr.Report.Batch.PatchedSleds+sr.Report.Batch.UnpatchedSleds, sr.Report.Batch.BatchWindows)
	fmt.Printf("active functions: %d (was %d)\n\n", sr.Active, inst.Status().Patched)

	// Wait for the phase to drain (LastRun lags the runs counter by an
	// instant, so wait for the summary itself), then show what the run saw.
	st := status(base)
	for ; st.Running || st.LastRun == nil; st = status(base) {
		if st.LastError != "" {
			log.Fatalf("phase failed: %s", st.LastError)
		}
		time.Sleep(5 * time.Millisecond)
	}
	fmt.Printf("phase done: %d events, %d re-selections visible to the run\n",
		st.LastRun.Events, st.LastRun.Reconfigs)

	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	raw := new(bytes.Buffer)
	raw.ReadFrom(mresp.Body) //nolint:errcheck
	mresp.Body.Close()
	fmt.Println("\nscraped /metrics:")
	for _, line := range strings.Split(raw.String(), "\n") {
		if strings.HasPrefix(line, "capi_") &&
			(strings.Contains(line, "reconfigs") || strings.Contains(line, "active") ||
				strings.Contains(line, "synthetic") || strings.Contains(line, "events_total")) {
			fmt.Println("  " + line)
		}
	}
}

func status(base string) ctl.StatusResponse {
	resp, err := http.Get(base + "/v1/status")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var st ctl.StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		log.Fatal(err)
	}
	return st
}

func post(url, body string) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode >= 300 {
		log.Fatalf("POST %s: status %d", url, resp.StatusCode)
	}
}
