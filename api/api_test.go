package api

import (
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"strings"
	"testing"
)

func TestErrorEnvelopeShape(t *testing.T) {
	e := Errorf(CodeInvalidArgument, "bad %s", "thing").WithDetail("field", "n")
	b, err := json.Marshal(ErrorEnvelope{Error: e})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"error":{"code":"invalid_argument","message":"bad thing","details":{"field":"n"}}}`
	if string(b) != want {
		t.Fatalf("envelope %s, want %s", b, want)
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(b, &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != CodeInvalidArgument || env.Error.Details["field"] != "n" {
		t.Fatalf("round trip %+v", env.Error)
	}
	var asErr error = e
	if !strings.Contains(asErr.Error(), "invalid_argument") {
		t.Fatalf("error string %q", asErr)
	}
}

func TestErrorCodeStatusMapping(t *testing.T) {
	want := map[ErrorCode]int{
		CodeInvalidArgument: http.StatusBadRequest,
		CodeNotFound:        http.StatusNotFound,
		CodeConflict:        http.StatusConflict,
		CodePoolSaturated:   http.StatusServiceUnavailable,
		CodeNotReady:        http.StatusServiceUnavailable,
		CodeInternal:        http.StatusInternalServerError,
	}
	codes := ErrorCodes()
	if len(codes) != len(want) {
		t.Fatalf("ErrorCodes lists %d codes, want %d", len(codes), len(want))
	}
	for _, c := range codes {
		if got := c.HTTPStatus(); got != want[c] {
			t.Fatalf("%s -> %d, want %d", c, got, want[c])
		}
	}
	// An unknown code is a server fault, never a success.
	if got := ErrorCode("martian").HTTPStatus(); got != http.StatusInternalServerError {
		t.Fatalf("unknown code -> %d", got)
	}
	if !CodePoolSaturated.Retryable() || !CodeNotReady.Retryable() || CodeConflict.Retryable() {
		t.Fatal("retryability misclassified")
	}
	// Retired codes are unknown: a server fault if one ever arrived.
	for _, retired := range []ErrorCode{"placement_infeasible", "fleet_under_floor"} {
		if _, listed := want[retired]; listed || retired.HTTPStatus() != http.StatusInternalServerError {
			t.Fatalf("retired code %s still mapped", retired)
		}
	}
}

func TestStateTerminal(t *testing.T) {
	for _, s := range States() {
		if got := s.Terminal(); got != (s == StateDone || s == StateFailed) {
			t.Fatalf("%s terminal=%v", s, got)
		}
		if !KnownState(string(s)) {
			t.Fatalf("%s not known", s)
		}
	}
	if KnownState("sideways") {
		t.Fatal("bogus state accepted")
	}
}

func TestPageInfoCursor(t *testing.T) {
	// Middle page: next cursor advances by the served count.
	p := NewPageInfo(10, 2, 4, 4)
	if p.NextOffset == nil || *p.NextOffset != 6 {
		t.Fatalf("middle page cursor %+v", p.NextOffset)
	}
	// Final page: no cursor.
	if p := NewPageInfo(10, 6, 4, 4); p.NextOffset != nil {
		t.Fatalf("final page carries cursor %d", *p.NextOffset)
	}
	// Offset beyond total: empty page, no cursor, well-formed envelope.
	p = NewPageInfo(3, 9, 4, 0)
	if p.NextOffset != nil || p.Total != 3 || p.Offset != 9 {
		t.Fatalf("beyond-total page %+v", p)
	}
	b, _ := json.Marshal(SessionPage{PageInfo: p, Sessions: []SessionView{}})
	if want := `{"total":3,"offset":9,"limit":4,"sessions":[]}`; string(b) != want {
		t.Fatalf("page json %s", b)
	}
}

func TestEventPayloadDecoding(t *testing.T) {
	raw, _ := json.Marshal(SessionView{ID: "s-000001", State: StateDone})
	e := Event{Seq: 7, Kind: KindSession, ID: "s-000001", State: StateDone, Terminal: true, Data: raw}
	v, ok := e.Session()
	if !ok || v.ID != "s-000001" || v.State != StateDone {
		t.Fatalf("session payload %+v ok=%v", v, ok)
	}
	if _, ok := e.Job(); ok {
		t.Fatal("session event decoded as job")
	}
	if _, ok := (Event{Kind: KindSession}).Session(); ok {
		t.Fatal("empty payload decoded")
	}
}

// TestReferenceCoversContract asserts the generated reference names every
// error code and every route, so the published docs cannot silently lose
// part of the surface.
func TestReferenceCoversContract(t *testing.T) {
	ref := Reference()
	for _, c := range ErrorCodes() {
		if !strings.Contains(ref, "`"+string(c)+"`") {
			t.Fatalf("reference misses code %s", c)
		}
	}
	for _, r := range Routes() {
		path := r.Path
		if !r.Unversioned {
			path = Prefix + r.Path
		}
		if !strings.Contains(ref, "`"+r.Method+" "+path+"`") {
			t.Fatalf("reference misses route %s %s", r.Method, path)
		}
	}
}

// TestREADMEEmbedsGeneratedReference keeps the README's /v1 section in
// lock-step with Reference(): the block between the v1-api markers must
// be exactly the generated text.
func TestREADMEEmbedsGeneratedReference(t *testing.T) {
	const begin, end = "<!-- v1-api:begin (generated by api.Reference; see api/reference.go) -->", "<!-- v1-api:end -->"
	raw, err := os.ReadFile("../README.md")
	if errors.Is(err, os.ErrNotExist) {
		t.Skip("no README at repository root")
	}
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)
	i := strings.Index(readme, begin)
	j := strings.Index(readme, end)
	if i < 0 || j < 0 || j < i {
		t.Fatalf("README lacks the %s / %s markers", begin, end)
	}
	got := strings.TrimSpace(readme[i+len(begin) : j])
	want := strings.TrimSpace(Reference())
	if got != want {
		t.Fatalf("README /v1 section is stale; regenerate with:\n  go run ./cmd/mediatorctl apidoc\ngot:\n%s\n\nwant:\n%s", got, want)
	}
}
