package remote

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tooleval/internal/runner"
	"tooleval/internal/sim"
)

// FuzzWorkerCellRequest sends arbitrary POST /v1/cells bodies through
// Worker.Handler. Nothing may panic; the status is 200, 400 or 409; a
// 200 body decodes as the CellResponse that fakeCompute gives for the
// request's key, and any other body decodes as a refusal that says
// why (409 only for a version mismatch).
func FuzzWorkerCellRequest(f *testing.F) {
	key := runner.Key{Platform: "ncube2", Tool: "p4", Bench: "pingpong", Procs: 4, Size: 1024, Scale: 0.5}
	valid, err := json.Marshal(requestFor(key, sim.EngineVersion))
	if err != nil {
		f.Fatal(err)
	}
	mismatch, err := json.Marshal(requestFor(key, sim.EngineVersion+1))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(mismatch)
	f.Add(append(bytes.TrimSuffix(valid, []byte("}")), []byte(`,"colour":"blue"}`)...))
	f.Add(valid[:len(valid)/2])

	// One worker serves every input; it keeps nothing between them.
	h := NewWorker(runner.New(2), fakeCompute).Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, CellsPath, bytes.NewReader(body)))
		dec := json.NewDecoder(rec.Body)
		dec.DisallowUnknownFields()
		switch rec.Code {
		case http.StatusOK:
			var got CellResponse
			if err := dec.Decode(&got); err != nil {
				t.Fatalf("200 body is not a CellResponse: %v", err)
			}
			var req CellRequest
			if err := json.Unmarshal(body, &req); err != nil {
				t.Fatalf("200 for a body that does not decode: %v", err)
			}
			want := CellResponse{}
			if res, err := fakeCompute(req.Key); err != nil {
				want.Err = err.Error()
			} else {
				want.Value, want.VirtualNS = res.Value, res.Virtual.Nanoseconds()
			}
			if got != want {
				t.Fatalf("key %+v: response %+v, want %+v", req.Key, got, want)
			}
		case http.StatusBadRequest, http.StatusConflict:
			var ref refusal
			if err := dec.Decode(&ref); err != nil || ref.Error == "" {
				t.Fatalf("%d body is not a refusal: %+v, %v", rec.Code, ref, err)
			}
			if (rec.Code == http.StatusConflict) != (ref.Kind == kindVersionMismatch) {
				t.Fatalf("%d refusal of kind %q", rec.Code, ref.Kind)
			}
		default:
			t.Fatalf("status %d for body %q", rec.Code, body)
		}
	})
}

// FuzzRemoteCellResponse answers Remote.Compute's cell RPC with an
// arbitrary status (200 + code%400) and body from one loopback worker
// stub, configured as two nodes: its bare address and its URL. Nothing
// may panic. A 200 whose body decodes as a CellResponse gives exactly
// its value and virtual cost, or its err as an error, from one RPC; a
// 409 refusal of kind version_mismatch gives a *VersionError from one
// RPC and fails no node; a 5xx or an undecodable 200 fails the first
// node and fails over to the second; any other status is a plain error
// from one RPC that fails no node.
func FuzzRemoteCellResponse(f *testing.F) {
	f.Add(uint16(0), []byte(`{"value":1.5,"virtual_ns":2000}`))
	f.Add(uint16(0), []byte(`{"value":0,"virtual_ns":0,"err":"cell failed"}`))
	f.Add(uint16(0), []byte(`{"value":`))
	f.Add(uint16(209), []byte(`{"error":"version mismatch","kind":"version_mismatch","engine_version":7,"protocol_version":2}`))
	f.Add(uint16(209), []byte(`{"error":"conflict"}`))
	f.Add(uint16(300), []byte(`{"error":"boom"}`))
	f.Add(uint16(204), []byte(`{"error":"not found"}`))

	var mu sync.Mutex
	var status int
	var reply []byte
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		mu.Lock()
		code, body := status, reply
		mu.Unlock()
		rw.WriteHeader(code)
		rw.Write(body)
	}))
	defer ts.Close()
	key := runner.Key{Platform: "ncube2", Tool: "p4", Bench: "pingpong", Procs: 4, Size: 1024}

	f.Fuzz(func(t *testing.T, code uint16, body []byte) {
		mu.Lock()
		status, reply = 200+int(code)%400, body
		mu.Unlock()
		r, err := New([]string{strings.TrimPrefix(ts.URL, "http://"), ts.URL}, WithNodeBreaker(1, time.Hour, time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Compute(bg, key)
		var sent, ejected int64
		for _, ns := range r.NodeStats() {
			sent, ejected = sent+ns.Sent, ejected+ns.Ejected
		}

		var cr CellResponse
		decodes := json.Unmarshal(body, &cr) == nil
		var ref refusal
		refuses := json.Unmarshal(body, &ref) == nil && ref.Kind == kindVersionMismatch
		var ve *VersionError
		isVersion := errors.As(err, &ve)
		switch {
		case status >= 500 || status == http.StatusOK && !decodes:
			if err == nil || isVersion || sent != 2 || ejected != 2 {
				t.Fatalf("HTTP %d %q: err %v, %d RPCs, %d ejections; want a failover error from 2 RPCs that ejects both nodes", status, body, err, sent, ejected)
			}
			return
		case sent != 1 || ejected != 0:
			t.Fatalf("HTTP %d %q: %d RPCs and %d ejections, want 1 RPC and none", status, body, sent, ejected)
		case status == http.StatusOK && cr.Err != "":
			if err == nil || err.Error() != cr.Err || isVersion {
				t.Fatalf("HTTP 200 %q: err %v, want the cell error %q", body, err, cr.Err)
			}
		case status == http.StatusOK:
			want := runner.CellResult{Value: cr.Value, Virtual: time.Duration(cr.VirtualNS)}
			if err != nil || math.Float64bits(res.Value) != math.Float64bits(want.Value) || res.Virtual != want.Virtual {
				t.Fatalf("HTTP 200 %q: %+v, %v; want %+v", body, res, err, want)
			}
		case status == http.StatusConflict && refuses:
			if !isVersion || ve.WorkerEngine != ref.Engine || ve.WorkerProtocol != ref.Protocol {
				t.Fatalf("HTTP 409 %q: err %v, want a *VersionError with the worker's stamps", body, err)
			}
		default:
			if err == nil || isVersion {
				t.Fatalf("HTTP %d %q: err %v, want a plain error", status, body, err)
			}
		}
	})
}
