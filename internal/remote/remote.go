package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"tooleval/internal/breaker"
	"tooleval/internal/runner"
	"tooleval/internal/sim"
)

// Remote is the coordinator side of distributed execution: the compute
// step a session memoizes cells through when it has workers. Compute
// sends a cell's key to the worker that rendezvous hashing assigns it,
// and the worker recomputes the cell from the key alone (cells are
// pure functions of their keys). Everything else stays on the
// coordinator: single-flight, the memo cache and the optional durable
// tier with the caller's executor, quota charging with its harness.
// Its concurrency bound is the in-flight RPC bound, since Compute runs
// inside the executor's slot.
//
// Node failure runs through the same breaker as the store's write
// path: an RPC failure counts against the node, threshold consecutive
// failures eject it (timed half-open probe re-admits), and the failed
// cell fails over to the next node in its rendezvous order — mid-sweep
// loss of a worker moves exactly that worker's cells to survivors, with
// identical results.
type Remote struct {
	engine uint64
	now    func() time.Time

	threshold int
	base, max time.Duration

	nodes []*node
}

// Option configures a Remote under construction.
type Option func(*Remote)

// WithNodeBreaker tunes the per-node ejection breaker: threshold
// consecutive failures eject, first probe after base, backoff doubling
// up to max. Non-positive values keep the defaults (3, 100ms, 10s),
// and max is raised to at least base.
func WithNodeBreaker(threshold int, base, max time.Duration) Option {
	return func(r *Remote) { r.threshold, r.base, r.max = threshold, base, max }
}

// WithClock substitutes the breaker clock (tests).
func WithClock(now func() time.Time) Option {
	return func(r *Remote) { r.now = now }
}

// New builds the coordinator's compute step over the given worker
// addresses ("host:port" or full http:// URLs).
func New(nodes []string, opts ...Option) (*Remote, error) {
	if len(nodes) == 0 {
		return nil, errors.New("remote: no worker nodes given")
	}
	r := &Remote{engine: sim.EngineVersion, now: time.Now}
	for _, opt := range opts {
		opt(r)
	}
	seen := make(map[string]bool, len(nodes))
	for _, raw := range nodes {
		name := strings.TrimSpace(raw)
		if name == "" {
			return nil, errors.New("remote: empty worker address")
		}
		if seen[name] {
			return nil, fmt.Errorf("remote: duplicate worker address %q", name)
		}
		seen[name] = true
		base := name
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		base = strings.TrimRight(base, "/")
		r.nodes = append(r.nodes, &node{
			name: name,
			base: base,
			hash: fnv64(name),
			br:   breaker.New(r.threshold, r.base, r.max),
		})
	}
	return r, nil
}

// Nodes reports the configured worker addresses, in the given order.
func (r *Remote) Nodes() []string {
	out := make([]string, len(r.nodes))
	for i, n := range r.nodes {
		out[i] = n.name
	}
	return out
}

// Compute computes the cell key names on the workers, in rendezvous
// order: the top-ranked admitted node first, failing over down the
// order on transport faults. Deterministic outcomes — a 200 (with or
// without a cell error) or a version refusal — never fail over.
func (r *Remote) Compute(ctx context.Context, key runner.Key) (runner.CellResult, error) {
	var lastErr error
	retry := false
	for _, nd := range r.rank(key) {
		if err := ctx.Err(); err != nil {
			return runner.CellResult{}, err
		}
		if !nd.admit(r.now()) {
			continue
		}
		res, retryable, err := r.call(ctx, nd, key, retry)
		if err == nil {
			return res, nil
		}
		if !retryable {
			return runner.CellResult{}, err
		}
		lastErr = err
		retry = true
	}
	if lastErr != nil {
		return runner.CellResult{}, fmt.Errorf("remote: cell %s: every worker failed or is ejected: %w", key, lastErr)
	}
	return runner.CellResult{}, fmt.Errorf("remote: cell %s: every worker is ejected", key)
}

// call performs one cell RPC against nd. retryable reports whether the
// failure is a node fault worth failing over (transport error, 5xx,
// garbled response) as opposed to a deterministic outcome.
func (r *Remote) call(ctx context.Context, nd *node, key runner.Key, isRetry bool) (runner.CellResult, bool, error) {
	nd.record(isRetry)
	body, err := json.Marshal(requestFor(key, r.engine))
	if err != nil {
		return runner.CellResult{}, false, fmt.Errorf("remote: encode cell %s: %w", key, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, nd.base+CellsPath, bytes.NewReader(body))
	if err != nil {
		return runner.CellResult{}, false, fmt.Errorf("remote: %s: %w", nd.name, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			// The sweep was cancelled, not the node broken: return the
			// bare context error (never cached, no breaker penalty).
			return runner.CellResult{}, false, ctx.Err()
		}
		nd.fail(r.now(), err)
		return runner.CellResult{}, true, fmt.Errorf("remote: %s: %w", nd.name, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		if ctx.Err() != nil {
			return runner.CellResult{}, false, ctx.Err()
		}
		nd.fail(r.now(), err)
		return runner.CellResult{}, true, fmt.Errorf("remote: %s: reading response: %w", nd.name, err)
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		var cr CellResponse
		if err := json.Unmarshal(data, &cr); err != nil {
			nd.fail(r.now(), err)
			return runner.CellResult{}, true, fmt.Errorf("remote: %s: garbled response: %w", nd.name, err)
		}
		nd.ok()
		if cr.Err != "" {
			// A deterministic cell error: memoized upstream like a local
			// failure, never failed over (every worker computes it).
			return runner.CellResult{}, false, errors.New(cr.Err)
		}
		return runner.CellResult{Value: cr.Value, Virtual: time.Duration(cr.VirtualNS)}, false, nil
	case resp.StatusCode == http.StatusConflict:
		var ref refusal
		if jerr := json.Unmarshal(data, &ref); jerr == nil && ref.Kind == kindVersionMismatch {
			// The node is alive and answering — it is refusing, not
			// failing. No breaker penalty, no failover: a version skew is
			// a deployment bug to surface, not to route around.
			nd.ok()
			return runner.CellResult{}, false, &VersionError{
				Node:                nd.name,
				CoordinatorEngine:   r.engine,
				WorkerEngine:        ref.Engine,
				CoordinatorProtocol: ProtocolVersion,
				WorkerProtocol:      ref.Protocol,
			}
		}
		return runner.CellResult{}, false, fmt.Errorf("remote: %s: HTTP %d: %s", nd.name, resp.StatusCode, strings.TrimSpace(string(data)))
	case resp.StatusCode >= 500:
		err := fmt.Errorf("remote: %s: HTTP %d: %s", nd.name, resp.StatusCode, strings.TrimSpace(string(data)))
		nd.fail(r.now(), err)
		return runner.CellResult{}, true, err
	default:
		// A 4xx other than the version refusal means the coordinator sent
		// a request every worker would reject the same way.
		return runner.CellResult{}, false, fmt.Errorf("remote: %s: HTTP %d: %s", nd.name, resp.StatusCode, strings.TrimSpace(string(data)))
	}
}

// rank orders the nodes for key by rendezvous (highest-random-weight)
// hashing over the key's content hash: every coordinator computes the
// same order, each key has an independent pseudo-random permutation,
// and removing a node moves only that node's keys (to their runner-up)
// while adding one steals only the keys it now wins — the minimal
// movement property the consistent-hash test pins.
func (r *Remote) rank(key runner.Key) []*node {
	h := key.Hash()
	type scored struct {
		n *node
		s uint64
	}
	sc := make([]scored, len(r.nodes))
	for i, n := range r.nodes {
		sc[i] = scored{n, mix(n.hash, h)}
	}
	sort.Slice(sc, func(i, j int) bool {
		if sc[i].s != sc[j].s {
			return sc[i].s > sc[j].s
		}
		return sc[i].n.name < sc[j].n.name
	})
	out := make([]*node, len(sc))
	for i, s := range sc {
		out[i] = s.n
	}
	return out
}

// mix combines a node identity hash with a key hash into a rendezvous
// score (splitmix64 finalizer — full avalanche, so one key flipping
// one bit reshuffles its node order independently of every other key).
func mix(nodeHash, keyHash uint64) uint64 {
	x := nodeHash ^ (keyHash * 0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// fnv64 is FNV-1a over a node name (the runner's key hash covers key
// fields; node identities need their own).
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// node is one worker endpoint plus its coordinator-side health state:
// RPC counters and the ejection breaker, guarded by mu (dispatches for
// different cells touch the same node concurrently).
type node struct {
	name string
	base string
	hash uint64

	mu sync.Mutex
	br breaker.Breaker

	sent      int64
	completed int64
	retried   int64
}

// record counts an outgoing RPC (and whether it is a failover retry of
// a cell another node already failed).
func (n *node) record(isRetry bool) {
	n.mu.Lock()
	n.sent++
	if isRetry {
		n.retried++
	}
	n.mu.Unlock()
}

// admit reports whether the node may receive an RPC now: ejected nodes
// admit nothing until their backoff elapses, then admit one half-open
// probe (pushing the window forward so concurrent dispatches do not
// pile onto a node that is still down).
func (n *node) admit(now time.Time) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.br.Allow(now)
}

// fail records an RPC failure, ejecting the node at threshold
// consecutive failures (or doubling the backoff if a probe failed).
func (n *node) fail(now time.Time, err error) {
	n.mu.Lock()
	n.br.Fail(now, err)
	n.mu.Unlock()
}

// ok records a successful RPC: consecutive-failure state clears and an
// ejected node (whose probe just succeeded) is re-admitted.
func (n *node) ok() {
	n.mu.Lock()
	n.br.OK()
	n.completed++
	n.mu.Unlock()
}

// NodeStats is one worker's coordinator-side counters, for
// `toolbench -stats` and /statsz.
type NodeStats struct {
	// Node is the worker address as configured.
	Node string `json:"node"`
	// Sent counts cell RPCs issued to this node (including probes and
	// retries).
	Sent int64 `json:"sent"`
	// Completed counts RPCs the node answered with a 200.
	Completed int64 `json:"completed"`
	// Retried counts RPCs to this node that were failovers of a cell
	// another node had just failed.
	Retried int64 `json:"retried"`
	// Ejected counts how many times the breaker ejected this node.
	Ejected int64 `json:"ejected"`
	// State is the node's current admission state: "ok", "ejected"
	// (waiting out the backoff), or "probing" (backoff elapsed; next
	// RPC is the re-admission probe).
	State string `json:"state"`
}

// NodeStats snapshots every node's counters, in configuration order.
func (r *Remote) NodeStats() []NodeStats {
	now := r.now()
	out := make([]NodeStats, len(r.nodes))
	for i, n := range r.nodes {
		n.mu.Lock()
		st := "ok"
		if n.br.ProbeDue(now) {
			st = "probing"
		} else if n.br.Open() {
			st = "ejected"
		}
		out[i] = NodeStats{
			Node:      n.name,
			Sent:      n.sent,
			Completed: n.completed,
			Retried:   n.retried,
			Ejected:   n.br.Trips(),
			State:     st,
		}
		n.mu.Unlock()
	}
	return out
}
