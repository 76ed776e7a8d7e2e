package cluster

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/binary"
	"fmt"
	"math/big"
	"net"
	"sync"
	"testing"
	"time"
)

// mesh builds an n-node loopback mesh on one cluster id, fully addressed.
func mesh(t *testing.T, n int, tlsCfg []*TLS) []*Transport {
	t.Helper()
	trs := make([]*Transport, n)
	for i := 0; i < n; i++ {
		var ecfg EndpointConfig
		if tlsCfg != nil {
			ecfg.TLS = tlsCfg[i]
		}
		trs[i] = openOn(t, NewEndpoint(ecfg), Config{Self: i, N: n, ClusterID: "test"})
	}
	for i, tr := range trs {
		for j, peer := range trs {
			if i != j {
				tr.SetPeerAddr(j, peer.Addr())
			}
		}
	}
	return trs
}

// openOn opens a transport on ep; the test's cleanup closes ep, and with
// it the transport.
func openOn(t *testing.T, ep *Endpoint, cfg Config) *Transport {
	t.Helper()
	t.Cleanup(ep.Close)
	tr, err := ep.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// payload stamps a (sender, index) pair into 16 bytes.
func payload(sender, idx int) []byte {
	b := make([]byte, 16)
	binary.BigEndian.PutUint64(b[:8], uint64(sender))
	binary.BigEndian.PutUint64(b[8:], uint64(idx))
	return b
}

// collect drains count frames from a transport's inbox, asserting
// per-stream contiguous ordering, and returns per-sender payload indexes
// in arrival order.
func collect(t *testing.T, tr *Transport, count int, timeout time.Duration) map[int][]int {
	t.Helper()
	got := make(map[int][]int)
	lastSeq := make(map[int]uint64)
	deadline := time.After(timeout)
	for received := 0; received < count; received++ {
		select {
		case f := <-tr.Inbox():
			if f.Seq != lastSeq[f.From]+1 {
				t.Fatalf("stream %d->%d: seq %d after %d", f.From, f.To, f.Seq, lastSeq[f.From])
			}
			lastSeq[f.From] = f.Seq
			if len(f.Payload) != 16 {
				t.Fatalf("payload %d bytes", len(f.Payload))
			}
			sender := int(binary.BigEndian.Uint64(f.Payload[:8]))
			idx := int(binary.BigEndian.Uint64(f.Payload[8:]))
			got[sender] = append(got[sender], idx)
		case <-deadline:
			t.Fatalf("timed out after %d/%d frames", received, count)
		}
	}
	return got
}

// expectInOrder asserts each sender's payloads arrived exactly once, in
// send order — the transport's exactly-once contract.
func expectInOrder(t *testing.T, got map[int][]int, senders, count int) {
	t.Helper()
	for s := 0; s < senders; s++ {
		idxs := got[s]
		if len(idxs) != count {
			t.Fatalf("sender %d: %d payloads, want %d", s, len(idxs), count)
		}
		for i, idx := range idxs {
			if idx != i {
				t.Fatalf("sender %d: payload %d at position %d", s, idx, i)
			}
		}
	}
}

func TestMeshDelivery(t *testing.T) {
	const n, msgs = 4, 50
	trs := mesh(t, n, nil)
	for i, tr := range trs {
		i, tr := i, tr
		go func() {
			for m := 0; m < msgs; m++ {
				for j := 0; j < n; j++ {
					if j != i {
						tr.Send(j, payload(i, m))
					}
				}
			}
		}()
	}
	for _, tr := range trs {
		got := collect(t, tr, (n-1)*msgs, 10*time.Second)
		for s, idxs := range got {
			if len(idxs) != msgs {
				t.Fatalf("sender %d: %d payloads, want %d", s, len(idxs), msgs)
			}
			for i, idx := range idxs {
				if idx != i {
					t.Fatalf("sender %d: out of order at %d: %d", s, i, idx)
				}
			}
		}
	}
}

// TestReconnectWithResend is the transport's core hardening claim: a
// stream whose connections are repeatedly severed mid-traffic still
// delivers every frame exactly once, in order, because the sender
// replays its unacknowledged tail after each redial.
func TestReconnectWithResend(t *testing.T) {
	const minMsgs = 400
	trs := mesh(t, 2, nil)
	a, b := trs[0], trs[1]

	// Traffic flows until a drop has caught a frame in flight — the resend
	// this test is about — however the scheduler interleaves the sender
	// and the chaos loop; it then reports how many payloads it sent.
	var wg sync.WaitGroup
	sent := make(chan int, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		giveUp := time.Now().Add(20 * time.Second)
		m := 0
		for m < minMsgs || (a.Stats().Resent == 0 && time.Now().Before(giveUp)) {
			a.Send(1, payload(0, m))
			if m++; m%20 == 0 {
				time.Sleep(time.Millisecond)
			}
		}
		sent <- m
	}()
	// Chaos: sever every live connection (both endpoints) while traffic
	// is in flight.
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			a.DropConns()
			b.DropConns()
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// The receiver drains while the sender is still going (a full inbox
	// would stall the link), checking exactly-once in-order delivery.
	msgs, deadline := -1, time.After(60*time.Second)
	for got := 0; msgs < 0 || got < msgs; {
		select {
		case f := <-b.Inbox():
			if idx := int(binary.BigEndian.Uint64(f.Payload[8:])); f.Seq != uint64(got+1) || idx != got {
				t.Fatalf("frame %d carries seq %d payload %d", got, f.Seq, idx)
			}
			got++
		case msgs = <-sent:
		case <-deadline:
			t.Fatalf("timed out after %d/%d frames", got, msgs)
		}
	}
	close(stop)
	wg.Wait()

	st := a.Stats()
	if st.Reconnects == 0 {
		t.Error("no reconnects recorded despite dropped connections")
	}
	if st.Resent == 0 {
		t.Error("no resends recorded despite dropped connections")
	}
	if bs := b.Stats(); bs.Delivered != int64(msgs) {
		t.Errorf("receiver delivered %d, want %d", bs.Delivered, msgs)
	}
}

// TestLateAddress starts traffic before the peer's address is known: the
// link queues and buffers, then drains once SetPeerAddr arrives.
func TestLateAddress(t *testing.T) {
	a, err := New(Config{Self: 0, N: 2, ClusterID: "late"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for m := 0; m < 20; m++ {
		a.Send(1, payload(0, m))
	}
	b, err := New(Config{Self: 1, N: 2, ClusterID: "late"})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.SetPeerAddr(1, b.Addr())
	got := collect(t, b, 20, 10*time.Second)
	expectInOrder(t, got, 1, 20)
}

// TestHandshakeRejectsWrongCluster asserts the HELLO guard: a node from
// a different cluster session is refused and delivers nothing.
func TestHandshakeRejectsWrongCluster(t *testing.T) {
	a, err := New(Config{Self: 0, N: 2, ClusterID: "alpha"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	bep, b := openOwn(t, Config{Self: 1, N: 2, ClusterID: "beta"})
	a.SetPeerAddr(1, b.Addr())
	a.Send(1, payload(0, 0))

	waitRefused(t, func() bool { return bep.Stats().Rejected >= 5 && a.Stats().DialErrors >= 5 },
		func() string {
			return fmt.Sprintf("%d handshake rejections, %d dial errors", bep.Stats().Rejected, a.Stats().DialErrors)
		})
	select {
	case f := <-b.Inbox():
		t.Fatalf("cross-cluster frame delivered: %+v", f)
	default:
	}
}

// waitRefused waits until refused reports that a peer's handshake was
// refused enough times (five in the callers), and fails naming the
// counters from state if it never is.
func waitRefused(t *testing.T, refused func() bool, state func() string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !refused() {
		if time.Now().After(deadline) {
			t.Fatalf("handshakes not refused as often as expected: %s", state())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// --- TLS ---

// testCA mints an in-memory CA and issues one loopback server/client
// certificate per node from it.
func testCA(t *testing.T) (*x509.CertPool, func() tls.Certificate) {
	t.Helper()
	caKey, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	caTmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "cluster-test-ca"},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(time.Hour),
		IsCA:                  true,
		KeyUsage:              x509.KeyUsageCertSign,
		BasicConstraintsValid: true,
	}
	caDER, err := x509.CreateCertificate(rand.Reader, caTmpl, caTmpl, &caKey.PublicKey, caKey)
	if err != nil {
		t.Fatal(err)
	}
	caCert, err := x509.ParseCertificate(caDER)
	if err != nil {
		t.Fatal(err)
	}
	pool := x509.NewCertPool()
	pool.AddCert(caCert)

	serial := int64(1)
	issue := func() tls.Certificate {
		serial++
		key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		tmpl := &x509.Certificate{
			SerialNumber: big.NewInt(serial),
			Subject:      pkix.Name{CommonName: fmt.Sprintf("node-%d", serial)},
			NotBefore:    time.Now().Add(-time.Hour),
			NotAfter:     time.Now().Add(time.Hour),
			KeyUsage:     x509.KeyUsageDigitalSignature,
			ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth, x509.ExtKeyUsageClientAuth},
			IPAddresses:  []net.IP{net.ParseIP("127.0.0.1")},
		}
		der, err := x509.CreateCertificate(rand.Reader, tmpl, caCert, &key.PublicKey, caKey)
		if err != nil {
			t.Fatal(err)
		}
		return tls.Certificate{Certificate: [][]byte{der}, PrivateKey: key}
	}
	return pool, issue
}

// TestMutualTLSDelivery runs the mesh over mutual TLS end to end.
func TestMutualTLSDelivery(t *testing.T) {
	const n, msgs = 3, 20
	pool, issue := testCA(t)
	tlsCfgs := make([]*TLS, n)
	for i := range tlsCfgs {
		tlsCfgs[i] = NewTLS(issue(), pool)
	}
	trs := mesh(t, n, tlsCfgs)
	for i, tr := range trs {
		for m := 0; m < msgs; m++ {
			for j := 0; j < n; j++ {
				if j != i {
					tr.Send(j, payload(i, m))
				}
			}
		}
	}
	for _, tr := range trs {
		got := collect(t, tr, (n-1)*msgs, 15*time.Second)
		for s, idxs := range got {
			if len(idxs) != msgs {
				t.Fatalf("sender %d: %d payloads, want %d", s, len(idxs), msgs)
			}
		}
	}
}

// TestTLSRejectsWrongCA asserts the mutual-TLS guard: a dialer whose
// certificate chains to a different CA never completes a handshake, and
// no frame crosses.
func TestTLSRejectsWrongCA(t *testing.T) {
	pool, issue := testCA(t)
	roguePool, rogueIssue := testCA(t)

	// b trusts the real CA; a (the dialer) presents a rogue certificate
	// and trusts the rogue CA — both directions of verification fail.
	b := openOn(t, NewEndpoint(EndpointConfig{TLS: NewTLS(issue(), pool)}), Config{Self: 1, N: 2, ClusterID: "tls"})
	a := openOn(t, NewEndpoint(EndpointConfig{TLS: NewTLS(rogueIssue(), roguePool)}), Config{Self: 0, N: 2, ClusterID: "tls"})
	a.SetPeerAddr(1, b.Addr())
	a.Send(1, payload(0, 0))

	waitRefused(t, func() bool { return a.Stats().DialErrors >= 5 },
		func() string { return fmt.Sprintf("%d TLS dial errors", a.Stats().DialErrors) })
	select {
	case f := <-b.Inbox():
		t.Fatalf("frame crossed a wrong-CA boundary: %+v", f)
	default:
	}
}
