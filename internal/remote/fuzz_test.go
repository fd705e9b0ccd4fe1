package remote

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

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

	// One worker serves every input; the bound keeps a long fuzz run's
	// memo from growing with the keys it has tried.
	x := runner.New(2)
	x.Cache().SetCapacity(256)
	h := NewWorker(x, fakeCompute).Handler()
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
