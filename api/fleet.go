package api

import "encoding/json"

// KindFleet is the event-subject namespace of operator alerts: the SLO
// burn-rate transitions. Event.State reads "alert.<rule>" when a rule
// starts firing and "clear.<rule>" when it stops, so SSE consumers see
// e.g. "fleet" / "alert.slo_burn". The name predates the retirement of
// the fleet gossip plane, whose peer-health rules once shared it; it is
// kept so subscribers keep working.
const KindFleet = "fleet"

// FleetAlert is one firing (or clearing) alert-rule instance.
type FleetAlert struct {
	// Rule names the threshold: slo_burn.
	Rule string `json:"rule"`
	// Peer is the subject daemon's API URL ("" for daemon-wide rules,
	// which slo_burn is).
	Peer string `json:"peer,omitempty"`
	// Index is the subject's index (-1 for daemon-wide rules).
	Index int `json:"index"`
	// Message is the operator-readable condition.
	Message string `json:"message"`
	// Value is the measured quantity that crossed the threshold.
	Value float64 `json:"value,omitempty"`
	// TraceID is an exemplar: for slo_burn, the retained trace id of a
	// play that breached the objective in the burning window.
	TraceID string `json:"trace_id,omitempty"`
	// Session is the exemplar trace's session id.
	Session string `json:"session,omitempty"`
	// Cleared marks the condition's end rather than its start.
	Cleared bool `json:"cleared,omitempty"`
}

// FleetAlert decodes the event payload as a fleet alert; ok is false
// when the event carries none or it does not parse.
func (e Event) FleetAlert() (FleetAlert, bool) {
	var a FleetAlert
	if e.Kind != KindFleet || len(e.Data) == 0 || json.Unmarshal(e.Data, &a) != nil {
		return FleetAlert{}, false
	}
	return a, true
}
