package async

import (
	"fmt"
	"strings"
)

// TraceRecorder collects TraceEntries from a run for postmortem analysis:
// wire Record into Config.Trace. It can list the sent messages, measure
// the peak number in flight, and render a compact textual timeline —
// the "message pattern" a scheduler saw, which is also exactly what the
// paper's Section 6.4 equivalence-class counting is about.
type TraceRecorder struct {
	Entries []TraceEntry
}

// Record is the Config.Trace hook.
func (t *TraceRecorder) Record(e TraceEntry) { t.Entries = append(t.Entries, e) }

// Sent returns every sent-message metadata in order.
func (t *TraceRecorder) Sent() []MsgMeta {
	var out []MsgMeta
	for _, e := range t.Entries {
		out = append(out, e.Sent...)
	}
	return out
}

// MaxInFlight returns the maximum number of simultaneously pending
// messages observed (a congestion measure).
func (t *TraceRecorder) MaxInFlight() int {
	inFlight, maxIF := 0, 0
	for _, e := range t.Entries {
		inFlight += len(e.Sent)
		inFlight -= len(e.Delivered)
		if inFlight > maxIF {
			maxIF = inFlight
		}
	}
	return maxIF
}

// Timeline renders the first limit steps as text ("s3 p1! <2 >0,4" means
// step 3 activated player 1 for the first time, delivered a message from
// 2, and player 1 sent to 0 and 4).
func (t *TraceRecorder) Timeline(limit int) string {
	var sb strings.Builder
	for i, e := range t.Entries {
		if i >= limit {
			fmt.Fprintf(&sb, "... (%d more steps)\n", len(t.Entries)-limit)
			break
		}
		fmt.Fprintf(&sb, "s%d p%d", e.Step, e.Player)
		if e.Started {
			sb.WriteByte('!')
		}
		for _, m := range e.Delivered {
			fmt.Fprintf(&sb, " <%d", m.From)
		}
		if len(e.Sent) > 0 {
			sb.WriteString(" >")
			tos := make([]string, len(e.Sent))
			for j, m := range e.Sent {
				tos[j] = fmt.Sprintf("%d", m.To)
			}
			sb.WriteString(strings.Join(tos, ","))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
