package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// Heartbeat self-registers a member with a fleet coordinator and keeps
// re-registering every interval until ctx is canceled. It POSTs once
// immediately, then on the tick; transitions between reachable and
// unreachable are reported once through logf (never per-beat, so a
// coordinator outage does not flood the member's log). Intended to run as
// one goroutine inside capi serve's -fleet mode; it never terminates the
// process — losing the coordinator only stops the member from being
// steered fleet-wide, the local control plane keeps working.
func Heartbeat(ctx context.Context, fleetURL string, reg RegisterRequest, interval time.Duration, logf func(format string, args ...any)) {
	if interval <= 0 {
		interval = DefaultHeartbeatInterval
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	body, err := json.Marshal(reg)
	if err != nil {
		logf("fleet heartbeat disabled: encoding registration: %v", err)
		return
	}
	url := fleetURL + "/v1/fleet/register"
	client := &http.Client{}

	beat := func() error {
		bctx, cancel := context.WithTimeout(ctx, DefaultTimeout)
		defer cancel()
		req, err := http.NewRequestWithContext(bctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxBodyBytes)) //nolint:errcheck // drain for reuse
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("coordinator returned status %d", resp.StatusCode)
		}
		return nil
	}

	reachable := false
	report := func(err error) {
		if err == nil && !reachable {
			reachable = true
			logf("registered with fleet coordinator %s", fleetURL)
		} else if err != nil && reachable {
			reachable = false
			logf("fleet coordinator %s unreachable: %v (will keep retrying)", fleetURL, err)
		}
	}
	err = beat()
	if err != nil {
		// First beat failed: say so once even though we were never
		// reachable, so a misconfigured -fleet URL is visible immediately.
		logf("fleet registration with %s failed: %v (will keep retrying)", fleetURL, err)
	}
	report(err)

	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			report(beat())
		}
	}
}
