package core

import (
	"asyncmediator/internal/avss"
	"asyncmediator/internal/ba"
)

// The phases of protocol work, indexing Phases. Each module of the tower
// that sends has its own body types (CoreSet and the MPC engine send
// nothing themselves), and a resharing dealing is an AVSS dealing.
const (
	phaseAVSS = iota // avss.AVSS: MsgRow, MsgPoint, MsgReady
	phaseOpen        // avss.Open: MsgShare
	phaseBA          // ba.BA: MsgEst, MsgAux, MsgDone
)

// Phases names the phases: the trace spans, the phase label of the
// farm's phase histogram and the SLO "phase:" selectors.
var Phases = [...]string{phaseAVSS: "avss", phaseOpen: "open", phaseBA: "ba"}

// PhaseOf classifies a message body by its type, so a message buffered
// before its instance is spawned, or decoded from the wire, classifies
// like a local one. ok is false for a body no module sends.
func PhaseOf(body any) (phase int, ok bool) {
	switch body.(type) {
	case avss.MsgRow, avss.MsgPoint, avss.MsgReady:
		return phaseAVSS, true
	case avss.MsgShare:
		return phaseOpen, true
	case ba.MsgEst, ba.MsgAux, ba.MsgDone:
		return phaseBA, true
	}
	return 0, false
}
