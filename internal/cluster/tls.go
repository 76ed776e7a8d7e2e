package cluster

import (
	"crypto/tls"
	"crypto/x509"
	"fmt"
	"net"
	"os"
)

// TLS bundles the material for mutually authenticated transport links:
// this node's certificate and the CA pool both sides of every connection
// are verified against. A nil *TLS means plaintext TCP (the single-host
// loopback configuration).
type TLS struct {
	cert tls.Certificate
	ca   *x509.CertPool
}

// LoadTLS reads the node certificate, its key, and the cluster CA from
// PEM files — the shapes mediatord's -tls-cert/-tls-key/-tls-ca flags
// name. All three are required: this package only does mutual TLS, so a
// daemon either authenticates both directions or speaks plaintext.
func LoadTLS(certFile, keyFile, caFile string) (*TLS, error) {
	cert, err := tls.LoadX509KeyPair(certFile, keyFile)
	if err != nil {
		return nil, fmt.Errorf("cluster: load keypair: %w", err)
	}
	pem, err := os.ReadFile(caFile)
	if err != nil {
		return nil, fmt.Errorf("cluster: load CA: %w", err)
	}
	pool := x509.NewCertPool()
	if !pool.AppendCertsFromPEM(pem) {
		return nil, fmt.Errorf("cluster: CA file %s holds no usable certificates", caFile)
	}
	return &TLS{cert: cert, ca: pool}, nil
}

// serverConfig is the listener side: present our certificate, demand and
// verify the dialer's against the cluster CA.
func (t *TLS) serverConfig() *tls.Config {
	return &tls.Config{
		Certificates: []tls.Certificate{t.cert},
		ClientCAs:    t.ca,
		ClientAuth:   tls.RequireAndVerifyClientCert,
		MinVersion:   tls.VersionTLS13,
	}
}

// clientConfig is the dialer side: present our certificate, verify the
// listener's against the cluster CA for the host we dialed.
func (t *TLS) clientConfig(addr string) *tls.Config {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		host = addr
	}
	return &tls.Config{
		Certificates: []tls.Certificate{t.cert},
		RootCAs:      t.ca,
		ServerName:   host,
		MinVersion:   tls.VersionTLS13,
	}
}
