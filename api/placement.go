package api

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// PlacementSpec asks the farm to place a session's players on the fleet
// automatically instead of (or in addition to) a hand-written peers
// list. In JSON it is either the object form or the string shorthand
// `"placement": "auto"`.
type PlacementSpec struct {
	// Mode is "auto" — the only mode; the field exists so future modes
	// extend the object instead of repurposing it.
	Mode string `json:"mode"`
	// Strategy picks the spread: "spread" (default — even, least-loaded
	// first), "pack" (one daemon), or "strict" (spread that refuses when
	// the t-daemon fault budget is unattainable).
	Strategy string `json:"strategy,omitempty"`
	// MinDaemons refuses placements using fewer distinct healthy daemons
	// (fleet_under_floor); 0 accepts any fleet, down to the single-daemon
	// degenerate.
	MinDaemons int `json:"min_daemons,omitempty"`
}

// PlacementModeAuto is the only PlacementSpec mode.
const PlacementModeAuto = "auto"

// UnmarshalJSON accepts both the object form and the `"auto"` string
// shorthand. Unknown object fields are rejected, matching the /v1
// strict-decode contract.
func (p *PlacementSpec) UnmarshalJSON(b []byte) error {
	if len(bytes.TrimSpace(b)) > 0 && bytes.TrimSpace(b)[0] == '"' {
		var mode string
		if err := json.Unmarshal(b, &mode); err != nil {
			return err
		}
		*p = PlacementSpec{Mode: mode}
		return nil
	}
	type raw PlacementSpec // shed the method set: no recursion
	var r raw
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return fmt.Errorf("placement: %w", err)
	}
	*p = PlacementSpec(r)
	return nil
}

// PlacementAssignment is one daemon's share of a placement decision.
type PlacementAssignment struct {
	// Addr is the daemon's API base URL ("" for the coordinator when no
	// fleet view named it).
	Addr string `json:"addr,omitempty"`
	// Self marks the coordinator's own share.
	Self bool `json:"self,omitempty"`
	// Players are the player indices hosted there, ascending.
	Players []int `json:"players"`
}

// PlacementView is the scheduler's decision: which daemon hosts which
// player. It rides terminal SessionViews of auto-placed sessions and is
// the body of POST /v1/cluster/plan dry-runs.
type PlacementView struct {
	// Strategy is the effective strategy (defaults made explicit).
	Strategy string `json:"strategy"`
	// Floor is the least n the spec's theorem variant admits: 4k+4t+1,
	// 3k+3t+1, 3k+4t+1 or 2k+3t+1 for 4.1, 4.2, 4.4 or 4.5.
	Floor int `json:"floor"`
	// Daemons counts the distinct daemons used.
	Daemons int `json:"daemons"`
	// Assignments lists every daemon's players, coordinator first, then
	// sorted by address.
	Assignments []PlacementAssignment `json:"assignments"`
	// Peers is the non-coordinator share as a session peers list, sorted
	// by player index.
	Peers []PeerSpec `json:"peers,omitempty"`
	// Degraded explains, when non-empty, why the placement misses the
	// t-daemon fault budget (spread places anyway; strict refuses).
	Degraded string `json:"degraded,omitempty"`
}
