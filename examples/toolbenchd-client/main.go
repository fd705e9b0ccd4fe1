// toolbenchd-client is a minimal Go client for the toolbenchd HTTP
// API: submit an ExperimentSpec batch, consume the server-sent event
// stream while the sweep runs, fetch the final JSON report, and — when
// the server answers 429 with a Retry-After hint — back off with
// jittered exponential delays instead of hammering the quota.
//
// To stay runnable standalone (make examples runs every example to
// completion), it hosts its own toolbenchd in-process on a loopback
// port and talks to it over real HTTP — the client half is exactly
// what a remote tenant would write against a deployed daemon.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"tooleval"
	"tooleval/internal/server"
)

// submitWithRetry posts a batch, honoring 429 refusals: the wait is the
// server's Retry-After hint or the local exponential backoff, whichever
// is longer, with full jitter on top so a burst of refused clients
// spreads out instead of re-colliding on the same slot. Any other
// status returns to the caller as-is.
func submitWithRetry(ctx context.Context, base, tenant, body string) (*http.Response, error) {
	backoff := 250 * time.Millisecond
	const maxBackoff = 4 * time.Second
	for attempt := 1; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, "POST", base+"/v1/jobs", strings.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("X-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusTooManyRequests {
			return resp, nil
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		wait := backoff
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, err := strconv.Atoi(ra); err == nil && time.Duration(secs)*time.Second > wait {
				wait = time.Duration(secs) * time.Second
			}
		}
		wait = wait/2 + time.Duration(rand.Int63n(int64(wait))) // jitter: [wait/2, 3wait/2)
		fmt.Printf("  429 (attempt %d, Retry-After %ss): backing off %v\n",
			attempt, resp.Header.Get("Retry-After"), wait.Round(time.Millisecond))
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

func main() {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// --- the server half: a toolbenchd with one modest quota tier.
	// A real deployment runs `toolbenchd -addr :8080 -tier ...`
	// instead; everything below the next comment is pure client code.
	srv, err := server.New(server.Config{
		Tiers: map[string]server.QuotaTier{
			"demo":    {Name: "demo", MaxConcurrentJobs: 4},
			"metered": {Name: "metered", MaxCells: 2},
			"serial":  {Name: "serial", MaxConcurrentJobs: 1},
		},
		DefaultTier: "demo",
		TenantTiers: map[string]string{"budget-works": "metered", "burst": "serial"},
		Parallelism: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	// --- the client half: submit a batch as JSON.
	batch := `{"specs": [
		{"kind": "pingpong", "platform": "sun-ethernet", "tool": "p4", "sizes": [0, 1024, 65536]},
		{"kind": "pingpong", "platform": "sun-ethernet", "tool": "pvm", "sizes": [0, 1024, 65536]},
		{"kind": "app", "platform": "sun-ethernet", "tool": "p4", "app": "fft2d", "procs_list": [1, 2, 4, 8], "scale": 1}
	]}`
	req, err := http.NewRequestWithContext(ctx, "POST", base+"/v1/jobs", strings.NewReader(batch))
	if err != nil {
		log.Fatal(err)
	}
	req.Header.Set("X-Tenant", "example")
	req.Header.Set("Accept", "text/event-stream") // stream, don't block
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		log.Fatalf("submit: %s: %s", resp.Status, body)
	}

	// The Location header names the job before any event arrives, so
	// the client can resume the stream or fetch the report even if it
	// falls behind the job's replay buffer. Then consume the SSE feed:
	// the job header, the sweep lifecycle, and job_done.
	jobID := strings.TrimPrefix(resp.Header.Get("Location"), "/v1/jobs/")
	cells := 0
	sc := bufio.NewScanner(resp.Body)
	var event string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "job":
				var w struct {
					Job   string `json:"job"`
					Specs int    `json:"specs"`
				}
				json.Unmarshal([]byte(data), &w)
				fmt.Printf("job %s admitted (%d specs)\n", w.Job, w.Specs)
			case "spec_start":
				var w struct {
					Index int                     `json:"index"`
					Spec  tooleval.ExperimentSpec `json:"spec"`
				}
				json.Unmarshal([]byte(data), &w)
				fmt.Printf("  spec %d started: %s/%s\n", w.Index, w.Spec.Kind, w.Spec.Tool)
			case "cell":
				cells++
			case "spec_done":
				var w struct {
					Index int    `json:"index"`
					Error string `json:"error"`
				}
				json.Unmarshal([]byte(data), &w)
				status := "ok"
				if w.Error != "" {
					status = w.Error
				}
				fmt.Printf("  spec %d done: %s\n", w.Index, status)
			case "job_done":
				var w struct {
					State string `json:"state"`
					Cells int    `json:"cells"`
				}
				json.Unmarshal([]byte(data), &w)
				fmt.Printf("job finished: state=%s, %d cell events streamed\n", w.State, w.Cells)
			}
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}

	// Fetch the final report — the same bytes a local Session renders
	// for this batch.
	req, err = http.NewRequestWithContext(ctx, "GET", base+"/v1/jobs/"+jobID+"/report", nil)
	if err != nil {
		log.Fatal(err)
	}
	req.Header.Set("X-Tenant", "example")
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	report, err := io.ReadAll(r2.Body)
	r2.Body.Close()
	if err != nil || r2.StatusCode != http.StatusOK {
		log.Fatalf("report: %s: %v", r2.Status, err)
	}
	var parsed struct {
		Specs []struct {
			Spec  tooleval.ExperimentSpec  `json:"spec"`
			Times []float64                `json:"times"`
			App   *tooleval.AppMeasurement `json:"app"`
		} `json:"specs"`
	}
	if err := json.Unmarshal(report, &parsed); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreport (%d bytes):\n", len(report))
	for i, s := range parsed.Specs {
		switch {
		case s.App != nil:
			fmt.Printf("  spec %d: %s %s on %d proc counts, T(1)=%.2fs T(%d)=%.2fs\n",
				i, s.Spec.App, s.Spec.Tool, len(s.App.Procs),
				s.App.Seconds[0], s.App.Procs[len(s.App.Procs)-1], s.App.Seconds[len(s.App.Seconds)-1])
		default:
			fmt.Printf("  spec %d: %s %s, %d sizes, t0=%.3fms\n",
				i, s.Spec.Kind, s.Spec.Tool, len(s.Times), s.Times[0])
		}
	}

	// A quota refusal is a typed 429: the "budget-works" tenant rides
	// the metered tier (2 cells), so a sweep of fresh cells — cache
	// hits are free, these are not cached yet — exhausts its budget
	// and the per-spec errors say which resource ran out. A budget
	// overshoots by at most the parallelism bound (2 here), so the
	// sweep is wider than budget plus bound.
	r3, err := http.Post(base+"/v1/jobs?tenant=budget-works", "application/json",
		bytes.NewReader([]byte(`{"specs":[{"kind":"ring","platform":"alpha-fddi","tool":"pvm","procs":8,"sizes":[0,1024,2048,4096,65536]}]}`)))
	if err != nil {
		log.Fatal(err)
	}
	body3, _ := io.ReadAll(r3.Body)
	r3.Body.Close()
	fmt.Printf("\nmetered tenant: %s\n", r3.Status)
	if r3.StatusCode != http.StatusTooManyRequests {
		log.Fatalf("expected a 429, got %s: %s", r3.Status, body3)
	}

	// A concurrent-job refusal also says when to come back: the "burst"
	// tenant's tier admits one job at a time, so while a slow sweep
	// holds the slot, a second submit gets 429 + Retry-After. The
	// client's job is to honor it — submitWithRetry backs off with
	// jittered exponential delays until the slot frees.
	slowBody := `{"specs":[{"kind":"evaluate","scale":0.05}]}`
	slowReq, err := http.NewRequestWithContext(ctx, "POST", base+"/v1/jobs", strings.NewReader(slowBody))
	if err != nil {
		log.Fatal(err)
	}
	slowReq.Header.Set("X-Tenant", "burst")
	slowReq.Header.Set("Accept", "text/event-stream")
	slowResp, err := http.DefaultClient.Do(slowReq)
	if err != nil {
		log.Fatal(err)
	}
	if slowResp.StatusCode != http.StatusOK {
		log.Fatalf("slow submit: %s", slowResp.Status)
	}
	slowDrained := make(chan struct{})
	go func() { // drain the stream; the job releases its slot at job_done
		defer close(slowDrained)
		io.Copy(io.Discard, slowResp.Body)
		slowResp.Body.Close()
	}()
	fmt.Println("\nburst tenant: slot held by a slow sweep, retrying a second job...")
	r4, err := submitWithRetry(ctx, base, "burst",
		`{"specs":[{"kind":"pingpong","platform":"sun-ethernet","tool":"p4","sizes":[0]}]}`)
	if err != nil {
		log.Fatal(err)
	}
	io.Copy(io.Discard, r4.Body)
	r4.Body.Close()
	fmt.Printf("burst tenant: second job admitted after backoff: %s\n", r4.Status)
	<-slowDrained

	// SIGTERM equivalent: cancel the serve context and wait for the
	// graceful drain.
	cancel()
	if err := <-done; err != nil {
		log.Fatalf("drain: %v", err)
	}
	fmt.Println("server drained cleanly")
}
