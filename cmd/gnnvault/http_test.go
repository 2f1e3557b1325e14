package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"gnnvault/internal/registry"
	"gnnvault/internal/serve"
)

// TestAPIServerHangsUpOnStalledHeaders is the slow-client regression: a
// connection that never finishes its request headers is closed by the
// server (it used to be held open forever), and while it stalls a
// well-formed /predict on another connection still answers.
func TestAPIServerHangsUpOnStalledHeaders(t *testing.T) {
	_, c := serveFlags() // the serve defaults: cora/parallel on one 96 MB enclave
	c.opts.Epochs = 2
	fl := buildFleet(&c.opts, registry.Config{})
	defer fl.reg.Close()
	srv := serve.NewMulti(fl.reg, serve.Config{Workers: 1})
	defer srv.Close()
	api := serve.NewAPI(srv, fl.reg, apiConfig(fl, nil, "fp64", nil, false))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	hs := apiServer(ln.Addr().String(), api.Handler())
	go hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Close
	defer hs.Close()

	stalled, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer stalled.Close()
	if _, err := stalled.Write([]byte("POST /predict HTTP/1.1\r\nHost: gnnvault\r\nContent-Le")); err != nil {
		t.Fatalf("writing partial headers: %v", err)
	}

	resp, err := http.Post("http://"+ln.Addr().String()+"/predict", "application/json",
		strings.NewReader(`{"vault":"cora/parallel","nodes":[0,1]}`))
	if err != nil {
		t.Fatalf("POST /predict beside the stalled connection: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /predict beside the stalled connection: status %d, want 200", resp.StatusCode)
	}

	// Our own read deadline only bounds the test: the server must hang up
	// first, which reads as EOF (or a reset), never as our timeout.
	stalled.SetReadDeadline(time.Now().Add(apiReadHeaderTimeout + 10*time.Second)) //nolint:errcheck
	_, err = io.Copy(io.Discard, stalled)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("server kept a header-stalled connection open past %v", apiReadHeaderTimeout)
	}
}
