package fleet

import (
	"net/http"
	"time"

	"capi/internal/ctl"
)

// handleMetrics renders the coordinator's own series, then the status
// document of every reachable member — the ones /v1/fleet/status serves —
// as ctl renders it, with member="<name>" as the first label, so one
// Prometheus scrape of the coordinator covers the whole fleet. An
// unreachable member contributes capi_fleet_member_up 0 instead of silently
// vanishing from the scrape.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	members := s.reg.snapshot()
	rows := s.memberStatuses(members)
	healthy := 0
	for _, m := range members {
		if m.Healthy {
			healthy++
		}
	}
	var e ctl.Exposition
	e.Gauge("capi_fleet_members", "Members currently in the fleet registry.", len(members))
	e.Gauge("capi_fleet_members_healthy", "Members whose last probe or control request succeeded.", healthy)
	e.Counter("capi_fleet_registrations_total", "Registrations and heartbeats accepted.", s.reg.registrations.Load())
	e.Counter("capi_fleet_evictions_total", "Members evicted after missing their heartbeat TTL.", s.reg.evictions.Load())
	e.Counter("capi_fleet_fanouts_total", "Fan-out mutations served.", s.fanouts.Load())
	e.Counter("capi_fleet_fanout_member_failures_total", "Per-member application failures across all fan-outs.", s.fanoutFailures.Load())
	e.Gauge("capi_fleet_sse_clients", "Connected fleet SSE clients.", s.hub.Clients())
	e.Gauge("capi_fleet_uptime_seconds", "Coordinator uptime.", time.Since(s.started).Seconds())
	const upHelp = "Whether the member answered GET /v1/status."
	for _, row := range rows {
		e.Counter("capi_fleet_member_events_total", "SSE events relayed per member.", row.EventsRelayed, "member", row.Member)
		if row.Status == nil {
			e.Gauge("capi_fleet_member_up", upHelp, 0, "member", row.Member)
			continue
		}
		e.Gauge("capi_fleet_member_up", upHelp, 1, "member", row.Member)
		e.Status(row.Member, row.Status)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	e.Write(w)
}
