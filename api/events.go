package api

import "encoding/json"

// The event-subject namespaces carried in Event.Kind and usable as the
// ?kind= filter of GET /v1/events.
// KindFleet (fleet.go) joins these as the operator-alert namespace.
const (
	KindSession    = "session"
	KindExperiment = "experiment"
)

// EventNameHello is the SSE event name of the stream's first frame; all
// later frames use the subject's Kind as their SSE event name.
const EventNameHello = "hello"

// Hello is the first frame of every GET /v1/events stream: the bus's
// current sequence number. A subscriber that reads it is guaranteed to
// receive every event published afterwards (modulo overflow, detectable
// as a gap in Seq).
type Hello struct {
	Seq int64 `json:"seq"`
}

// Event is one state transition on the farm's event bus, delivered as a
// server-sent event (the SSE `id:` field repeats Seq).
type Event struct {
	// Seq is the bus-wide monotone sequence number.
	Seq int64 `json:"seq"`
	// Kind is the subject namespace: KindSession, KindExperiment or
	// KindFleet.
	Kind string `json:"kind"`
	// ID names the subject (session or experiment-job id).
	ID string `json:"id"`
	// State is the lifecycle state entered.
	State State `json:"state"`
	// Terminal marks the subject's final transition.
	Terminal bool `json:"terminal,omitempty"`
	// Data optionally carries the subject's snapshot (terminal events):
	// a SessionView for KindSession, an ExperimentJobView for
	// KindExperiment — so a subscriber needs no follow-up GET. A
	// KindFleet event always carries its FleetAlert.
	Data json.RawMessage `json:"data,omitempty"`
}

// Session decodes the event payload as a session snapshot; ok is false
// when the event carries none or it does not parse.
func (e Event) Session() (SessionView, bool) {
	var v SessionView
	if e.Kind != KindSession || len(e.Data) == 0 || json.Unmarshal(e.Data, &v) != nil {
		return SessionView{}, false
	}
	return v, true
}

// Job decodes the event payload as an experiment-job snapshot; ok is
// false when the event carries none or it does not parse.
func (e Event) Job() (ExperimentJobView, bool) {
	var v ExperimentJobView
	if e.Kind != KindExperiment || len(e.Data) == 0 || json.Unmarshal(e.Data, &v) != nil {
		return ExperimentJobView{}, false
	}
	return v, true
}
