package fleet

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// handleMetrics renders the coordinator's own series, then every
// reachable member's exposition with a member="<name>" label injected
// into each sample, so one Prometheus scrape of the coordinator covers
// the whole fleet. Families are merged across members (HELP/TYPE emitted
// once, samples grouped per family, as the text format requires); an
// unreachable member contributes capi_fleet_member_up 0 instead of
// silently vanishing from the scrape.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	members := s.reg.snapshot()
	results := make([]scraped, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		results[i].name = m.Name
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, body, err := s.doMember(http.MethodGet, m.URL+"/metrics", "", nil)
			if err != nil {
				results[i].err = err
			} else if code != http.StatusOK {
				results[i].err = fmt.Errorf("status %d", code)
			} else {
				results[i].body = body
			}
		}()
	}
	wg.Wait()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	var b strings.Builder
	own := func(help, typ, name string, value any) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n%s %v\n", name, help, name, typ, name, value)
	}
	healthy := 0
	for _, m := range members {
		if m.Healthy {
			healthy++
		}
	}
	own("Members currently in the fleet registry.", "gauge",
		"capi_fleet_members", len(members))
	own("Members whose last probe or control request succeeded.", "gauge",
		"capi_fleet_members_healthy", healthy)
	own("Registrations and heartbeats accepted.", "counter",
		"capi_fleet_registrations_total", s.reg.registrations.Load())
	own("Members evicted after missing their heartbeat TTL.", "counter",
		"capi_fleet_evictions_total", s.reg.evictions.Load())
	own("Fan-out mutations served.", "counter",
		"capi_fleet_fanouts_total", s.fanouts.Load())
	own("Per-member application failures across all fan-outs.", "counter",
		"capi_fleet_fanout_member_failures_total", s.fanoutFailures.Load())
	own("Connected fleet SSE clients.", "gauge",
		"capi_fleet_sse_clients", s.hub.Clients())
	own("Coordinator uptime.", "gauge",
		"capi_fleet_uptime_seconds", time.Since(s.started).Seconds())

	fmt.Fprintf(&b, "# HELP capi_fleet_member_events_total SSE events relayed per member.\n")
	fmt.Fprintf(&b, "# TYPE capi_fleet_member_events_total counter\n")
	for _, m := range members {
		fmt.Fprintf(&b, "capi_fleet_member_events_total{member=%q} %d\n", m.Name, m.Events)
	}
	fmt.Fprintf(&b, "# HELP capi_fleet_member_up Whether the member's /metrics scrape succeeded.\n")
	fmt.Fprintf(&b, "# TYPE capi_fleet_member_up gauge\n")
	for i, m := range members {
		up := 0
		if results[i].err == nil {
			up = 1
		}
		fmt.Fprintf(&b, "capi_fleet_member_up{member=%q} %d\n", m.Name, up)
	}

	b.WriteString(mergeExpositions(results))
	w.Write([]byte(b.String())) //nolint:errcheck // client gone
}

// scraped is one member's raw /metrics scrape.
type scraped struct {
	name string
	body []byte
	err  error
}

// family is one merged metric family: HELP/TYPE from the first member
// that declared them, samples from every member in member order.
type family struct {
	help    string
	typ     string
	samples []string
}

// mergeExpositions relabels and merges the members' Prometheus text
// expositions. Each sample line gains a leading member="<name>" label;
// family header lines are deduplicated and samples regrouped under one
// header per family, keeping the output a valid 0.0.4 exposition.
func mergeExpositions(scrapes []scraped) string {
	families := map[string]*family{}
	var order []string
	fam := func(metric string) *family {
		f := families[metric]
		if f == nil {
			f = &family{}
			families[metric] = f
			order = append(order, metric)
		}
		return f
	}
	for _, sc := range scrapes {
		if sc.err != nil || len(sc.body) == 0 {
			continue
		}
		for _, line := range strings.Split(string(sc.body), "\n") {
			line = strings.TrimRight(line, "\r")
			if line == "" {
				continue
			}
			if strings.HasPrefix(line, "#") {
				kind, metric, rest, ok := parseHeader(line)
				if !ok {
					continue
				}
				f := fam(metric)
				switch kind {
				case "HELP":
					if f.help == "" {
						f.help = rest
					}
				case "TYPE":
					if f.typ == "" {
						f.typ = rest
					}
				}
				continue
			}
			metric, relabelled, ok := relabel(line, sc.name)
			if !ok {
				continue
			}
			f := fam(metric)
			f.samples = append(f.samples, relabelled)
		}
	}
	sort.Strings(order)
	var b strings.Builder
	for _, metric := range order {
		f := families[metric]
		if len(f.samples) == 0 {
			continue
		}
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", metric, f.help)
		}
		if f.typ != "" {
			fmt.Fprintf(&b, "# TYPE %s %s\n", metric, f.typ)
		}
		for _, s := range f.samples {
			b.WriteString(s)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// parseHeader splits "# HELP name text" / "# TYPE name type" lines.
func parseHeader(line string) (kind, metric, rest string, ok bool) {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 3 || fields[0] != "#" {
		return "", "", "", false
	}
	if fields[1] != "HELP" && fields[1] != "TYPE" {
		return "", "", "", false
	}
	if len(fields) == 4 {
		rest = fields[3]
	}
	return fields[1], fields[2], rest, true
}

// relabel injects member="<name>" as the first label of one sample line.
// "m{a=\"b\"} 1" → "m{member=\"x\",a=\"b\"} 1"; "m 1" → "m{member=\"x\"} 1".
func relabel(line, memberName string) (metric, out string, ok bool) {
	tag := fmt.Sprintf("member=%q", memberName)
	if i := strings.IndexByte(line, '{'); i >= 0 {
		j := strings.IndexByte(line, '}')
		if j < i {
			return "", "", false
		}
		sep := ","
		if j == i+1 { // empty label set "m{} 1"
			sep = ""
		}
		return line[:i], line[:i+1] + tag + sep + line[i+1:], true
	}
	i := strings.IndexByte(line, ' ')
	if i <= 0 {
		return "", "", false
	}
	return line[:i], line[:i] + "{" + tag + "}" + line[i:], true
}
