package fleet

import (
	"encoding/json"
	"testing"
	"time"
)

const fuzzSecret = "fuzz-secret"

// receiveMesh is a fleet node at N=4, Self=0 on a fixed clock, with no
// transport: receive only verifies and merges, so it needs none. Its own
// entry and peer 2's are set, so an overwrite or a downgrade shows.
func receiveMesh(secret string) *Mesh {
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	cfg := Config{Self: 0, N: 4, Secret: secret, Now: func() time.Time { return at }}
	if err := cfg.normalize(); err != nil {
		panic(err)
	}
	m := &Mesh{cfg: cfg, peers: make([]peerEntry, cfg.N)}
	for i := range m.peers {
		m.peers[i] = peerEntry{h: Health{Index: i}, state: StateUnknown}
	}
	m.peers[0] = peerEntry{h: Health{Index: 0, Gen: 9, Addr: "self"}, lastSeen: at, state: StateHealthy}
	m.peers[2] = peerEntry{h: Health{Index: 2, Gen: 5, QueueDepth: 3}, lastSeen: at, state: StateHealthy}
	return m
}

// digestBytes encodes a digest from sender from, signed when secret is
// set.
func digestBytes(from int, entries []Health, secret string) []byte {
	b, err := json.Marshal(digest{From: from, Entries: entries, Sig: sign(secret, from, entries)})
	if err != nil {
		panic(err)
	}
	return b
}

// FuzzFleetReceive feeds arbitrary bytes to the gossip digest decoder of
// an unsigned and a signed mesh. Whatever arrives, receive never panics,
// never lowers a peer's generation and never touches the node's own
// entry; and a mesh with a secret merges nothing from a digest that is
// unsigned or wrongly signed.
func FuzzFleetReceive(f *testing.F) {
	entries := []Health{
		{Index: 0, Gen: 50, Addr: "forged self"},
		{Index: 1, Gen: 3, LiveSessions: 2},
		{Index: 2, Gen: 4, QueueDepth: 99},
		{Index: 3, Gen: 7, Shedding: true},
	}
	f.Add(digestBytes(1, entries, ""))
	f.Add(digestBytes(1, entries, fuzzSecret))
	f.Add(digestBytes(2, entries, "another secret"))
	f.Add([]byte(`{"from":1,"entries":[{"index":9,"gen":1},{"index":-1,"gen":2}]}`))
	f.Add([]byte("\x00garbage{"))
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, secret := range []string{"", fuzzSecret} {
			m := receiveMesh(secret)
			before := append([]peerEntry(nil), m.peers...)
			m.receive(1, b)
			for i, p := range m.peers {
				if p.h.Gen < before[i].h.Gen {
					t.Fatalf("secret %q: peer %d generation fell from %d to %d", secret, i, before[i].h.Gen, p.h.Gen)
				}
			}
			if m.peers[0] != before[0] {
				t.Fatalf("secret %q: self entry overwritten: %+v", secret, m.peers[0])
			}
			if secret == "" {
				continue
			}
			var d digest
			signed := json.Unmarshal(b, &d) == nil && d.Sig != "" && verify(secret, d.From, d.Entries, d.Sig)
			if !signed && (m.merged != 0 || !equalPeers(m.peers, before)) {
				t.Fatalf("an unsigned or wrongly signed digest merged %d entries", m.merged)
			}
		}
	})
}

// equalPeers reports whether two peer tables hold the same entries.
func equalPeers(a, b []peerEntry) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return len(a) == len(b)
}
