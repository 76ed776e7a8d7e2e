package api

import "encoding/json"

// KindFleet is the event-subject namespace of fleet telemetry: alert
// transitions published by the gossip mesh's rule engine. Event.State
// reads "alert.<rule>" when a rule starts firing and "clear.<rule>" when
// it stops, so SSE consumers see e.g. "fleet" / "alert.peer_silent".
const KindFleet = "fleet"

// FleetPeerState is one daemon's liveness as judged by the answering
// daemon (gossip silence spans, observer-local clock).
type FleetPeerState string

const (
	// FleetPeerUnknown: never heard from this peer (mesh still forming).
	FleetPeerUnknown FleetPeerState = "unknown"
	// FleetPeerHealthy: gossip from this peer arrived recently.
	FleetPeerHealthy FleetPeerState = "healthy"
	// FleetPeerSuspect: silent past the suspicion window.
	FleetPeerSuspect FleetPeerState = "suspect"
	// FleetPeerExpired: silent past the expiry window; treated as gone.
	FleetPeerExpired FleetPeerState = "expired"
)

// FleetPeer is one row of the fleet view: the peer's latest gossiped
// health summary plus the answering daemon's liveness judgement.
type FleetPeer struct {
	// Index is the peer's slot in the fleet's sorted gossip address
	// table.
	Index int `json:"index"`
	// Addr is the peer's advertised API base URL ("" until heard from).
	Addr string `json:"addr,omitempty"`
	// Self marks the answering daemon's own row.
	Self bool `json:"self,omitempty"`
	// State is the liveness judgement.
	State FleetPeerState `json:"state"`
	// Gen is the highest health generation heard from this peer; it
	// advances once per gossip interval while the peer lives.
	Gen uint64 `json:"gen"`
	// SilentForMS is how long ago this peer's generation last advanced.
	SilentForMS int64 `json:"silent_for_ms"`
	// The peer's self-reported load, as of Gen.
	QueueDepth   int     `json:"queue_depth"`
	Shedding     bool    `json:"shedding,omitempty"`
	LiveSessions int     `json:"live_sessions"`
	StoreKeys    int     `json:"store_keys"`
	Redials      int64   `json:"redials"`
	Resends      int64   `json:"resends"`
	DialErrors   int64   `json:"dial_errors"`
	PhaseP99MS   float64 `json:"phase_p99_ms"`
}

// FleetAlert is one firing (or clearing) alert-rule instance.
type FleetAlert struct {
	// Rule names the threshold: peer_silent, peer_expired,
	// queue_saturated, redial_storm, fleet_floor, slo_burn.
	Rule string `json:"rule"`
	// Peer is the subject's API URL ("" for fleet-wide rules).
	Peer string `json:"peer,omitempty"`
	// Index is the subject's fleet index (-1 for fleet-wide rules).
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

// FleetView is the answer of GET /v1/cluster/fleet: the whole fleet as
// the answering daemon currently sees it through gossip. The view is
// eventually consistent — every daemon converges to the same judgement,
// but any single answer is one observer's.
type FleetView struct {
	// Self is the answering daemon's fleet index.
	Self int `json:"self"`
	// Size is the configured fleet size (gossip address table length).
	Size int `json:"size"`
	// Floor, when > 0, is the healthy-daemon minimum the operator
	// configured (its count of live failure domains); fewer fires
	// fleet_floor.
	Floor int `json:"floor,omitempty"`
	// GossipIntervalMS, SuspectAfterMS, ExpireAfterMS are the mesh's
	// timing parameters.
	GossipIntervalMS int64 `json:"gossip_interval_ms"`
	SuspectAfterMS   int64 `json:"suspect_after_ms"`
	ExpireAfterMS    int64 `json:"expire_after_ms"`
	// Healthy/Suspect/Expired/Unknown count peers per state (self
	// included, always healthy).
	Healthy int `json:"healthy"`
	Suspect int `json:"suspect"`
	Expired int `json:"expired"`
	Unknown int `json:"unknown,omitempty"`
	// Peers lists every fleet slot in index order.
	Peers []FleetPeer `json:"peers"`
	// GenVector is each slot's highest known generation — identical
	// vectors on two daemons mean their views have converged.
	GenVector []uint64 `json:"gen_vector"`
	// Alerts lists the rules currently firing on this daemon.
	Alerts []FleetAlert `json:"alerts,omitempty"`
	// Gossip-plane counters: rounds run, entries merged from peers,
	// digests rejected for a bad signature.
	GossipRounds  int64 `json:"gossip_rounds"`
	EntriesMerged int64 `json:"entries_merged"`
	SigRejected   int64 `json:"sig_rejected,omitempty"`
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
