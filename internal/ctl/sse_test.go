package ctl

import (
	"bufio"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestHubFullSubscriberNeverBlocksPublishAndShutdownEndsStreams pins the
// two promises both control planes build on: a subscriber that stopped
// reading costs the publisher nothing (it loses the overflow), and
// Shutdown returns every open stream so http.Server.Shutdown can drain.
func TestHubFullSubscriberNeverBlocksPublishAndShutdownEndsStreams(t *testing.T) {
	h := NewHub()
	stuck := h.subscribe() // never read until the end
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.Stream(w, r, "hub under test")
	}))
	defer ts.Close()

	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if line, err := br.ReadString('\n'); err != nil || line != ": hub under test\n" {
		t.Fatalf("preamble = %q, %v", line, err)
	}
	if got := h.Clients(); got != 2 {
		t.Fatalf("clients = %d, want 2", got)
	}

	// Four times the subscriber buffer, with nobody draining stuck.
	const published = 4 * 32
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range published {
			h.Publish("tick", i)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Publish blocked on a full subscriber")
	}
	if got := len(stuck); got != cap(stuck) {
		t.Fatalf("full subscriber holds %d events, want its whole buffer (%d)", got, cap(stuck))
	}
	// What it kept is the oldest events, ids in order; the rest are lost.
	for want := int64(1); want <= int64(cap(stuck)); want++ {
		if ev := <-stuck; ev.id != want || ev.name != "tick" {
			t.Fatalf("buffered event = id %d %q, want id %d \"tick\"", ev.id, ev.name, want)
		}
	}

	h.Shutdown()
	if _, ok := <-stuck; ok {
		t.Fatal("Shutdown left a subscriber channel open")
	}
	// The live stream ends: the reader reaches EOF instead of hanging.
	eof := make(chan error, 1)
	go func() {
		_, err := io.Copy(io.Discard, br)
		eof <- err
	}()
	select {
	case err := <-eof:
		if err != nil {
			t.Fatalf("stream ended with %v, want a clean EOF", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("open stream survived Shutdown")
	}
	if got := h.Clients(); got != 0 {
		t.Fatalf("clients = %d after Shutdown, want 0", got)
	}
	// A subscriber arriving after Shutdown is turned away at once.
	if _, ok := <-h.subscribe(); ok {
		t.Fatal("subscribe after Shutdown returned a live channel")
	}
}
