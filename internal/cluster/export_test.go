package cluster

import (
	"net"
	"testing"
)

// endpoint returns an endpoint that listens on host of the in-memory
// network n and dials from it, closed at the test's cleanup: the
// transport's network seam, set to n instead of package net.
func (n *memNet) endpoint(t *testing.T, host string, cfg EndpointConfig) *Endpoint {
	t.Helper()
	ep := NewEndpoint(cfg)
	ep.listen = func(string) (net.Listener, error) { return n.listen(host) }
	ep.dial = func(addr string) (net.Conn, error) { return n.dial(host, addr) }
	t.Cleanup(ep.Close)
	return ep
}
