package server

// The wire layer: the JSON shapes of the HTTP API. A spec, a cell and
// an app curve travel in their owning types' JSON form
// (tooleval.ExperimentSpec, tooleval.Cell, tooleval.AppMeasurement),
// so each shape is defined once; the structs here only frame them.
// testdata/wire.golden pins the bytes of every frame and report.

import (
	"encoding/json"
	"fmt"

	"tooleval"
)

// jobRequest is the POST /v1/jobs body.
type jobRequest struct {
	Specs []tooleval.ExperimentSpec `json:"specs"`
}

// errorWire is every non-2xx response body. Quota is present exactly
// when the refusal unwraps to a *tooleval.QuotaError — the typed form
// of a 429, so clients can distinguish an exhausted budget from a
// malformed request without parsing message strings.
type errorWire struct {
	Error string     `json:"error"`
	Quota *quotaWire `json:"quota,omitempty"`
}

type quotaWire struct {
	Resource string `json:"resource"`
	Used     int64  `json:"used"`
	Limit    int64  `json:"limit"`
}

// Event wire forms, one per tooleval.Event type. The SSE stream tags
// each with its event name (spec_start, cell, spec_done, phase_start,
// phase_done); errors travel as strings, empty meaning none.
type (
	specStartWire struct {
		Index int                     `json:"index"`
		Spec  tooleval.ExperimentSpec `json:"spec"`
	}
	specDoneWire struct {
		Index int    `json:"index"`
		Error string `json:"error,omitempty"`
	}
	cellEventWire struct {
		Cell   tooleval.Cell `json:"cell"`
		Cached bool          `json:"cached"`
		Error  string        `json:"error,omitempty"`
	}
	phaseWire struct {
		Phase string `json:"phase"`
		Error string `json:"error,omitempty"`
	}
)

// eventWire maps a session event to its SSE name and JSON payload.
// Unknown future event types map to ok=false and are not streamed.
func eventWire(ev tooleval.Event) (name string, data any, ok bool) {
	switch e := ev.(type) {
	case tooleval.SpecStart:
		return "spec_start", specStartWire{Index: e.Index, Spec: e.Spec}, true
	case tooleval.SpecDone:
		return "spec_done", specDoneWire{Index: e.Index, Error: errString(e.Err)}, true
	case tooleval.CellEvent:
		return "cell", cellEventWire{Cell: e.Cell, Cached: e.Cached, Error: errString(e.Err)}, true
	case tooleval.PhaseStart:
		return "phase_start", phaseWire{Phase: e.Phase}, true
	case tooleval.PhaseDone:
		return "phase_done", phaseWire{Phase: e.Phase, Error: errString(e.Err)}, true
	default:
		return "", nil, false
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// reportWire is the GET /v1/jobs/{id}/report body: one entry per
// submitted spec, in batch order. For "evaluate" specs the evaluation
// field embeds core.MarshalReport's rendering verbatim.
type reportWire struct {
	Specs []specReportWire `json:"specs"`
}

type specReportWire struct {
	Index      int                      `json:"index"`
	Spec       tooleval.ExperimentSpec  `json:"spec"`
	Error      string                   `json:"error,omitempty"`
	Times      []float64                `json:"times,omitempty"`
	App        *tooleval.AppMeasurement `json:"app,omitempty"`
	Evaluation json.RawMessage          `json:"evaluation,omitempty"`
}

// MarshalBatchReport renders a completed batch as the job-report JSON.
// It is a pure function of the batch outcome — no job ids, tenant
// names, or timestamps — so a report served by toolbenchd is
// byte-identical to the same batch run through a local Session and
// marshalled with this function; the load tests pin exactly that.
func MarshalBatchReport(results []tooleval.Result, errs []error) ([]byte, error) {
	if len(results) != len(errs) {
		return nil, fmt.Errorf("server: %d results vs %d errs", len(results), len(errs))
	}
	out := reportWire{Specs: make([]specReportWire, len(results))}
	for i, res := range results {
		sr := specReportWire{
			Index: i,
			Spec:  res.Spec,
			Error: errString(errs[i]),
			Times: res.Times,
		}
		if res.Spec.Kind == tooleval.KindApp && errs[i] == nil {
			sr.App = &results[i].App
		}
		if res.Evaluation != nil {
			blob, err := tooleval.MarshalReport(res.Evaluation)
			if err != nil {
				return nil, fmt.Errorf("server: spec %d: %w", i, err)
			}
			sr.Evaluation = blob
		}
		out.Specs[i] = sr
	}
	return json.MarshalIndent(out, "", "  ")
}
