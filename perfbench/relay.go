package main

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// countingRelay is a loopback TCP forwarder that counts the bytes it
// carries in both directions: the traced fleet run puts it on the mesh
// link to measure what a sync window sends.
type countingRelay struct {
	ln     net.Listener
	target string
	bytes  atomic.Int64

	mu     sync.Mutex
	conns  []net.Conn
	closed bool
	wg     sync.WaitGroup
}

func startCountingRelay(target string) (*countingRelay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &countingRelay{ln: ln, target: target}
	r.wg.Add(1)
	go r.accept()
	return r, nil
}

func (r *countingRelay) Addr() string { return r.ln.Addr().String() }

// Bytes is the total carried so far.
func (r *countingRelay) Bytes() int64 { return r.bytes.Load() }

func (r *countingRelay) accept() {
	defer r.wg.Done()
	for {
		in, err := r.ln.Accept()
		if err != nil {
			return // listener closed
		}
		out, err := net.Dial("tcp", r.target)
		if err != nil {
			in.Close()
			continue
		}
		if !r.track(in, out) {
			return
		}
		r.wg.Add(2)
		go r.pipe(out, in)
		go r.pipe(in, out)
	}
}

// track registers a connection pair for Close; false once closed.
func (r *countingRelay) track(in, out net.Conn) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		in.Close()
		out.Close()
		return false
	}
	r.conns = append(r.conns, in, out)
	return true
}

func (r *countingRelay) pipe(dst, src net.Conn) {
	defer r.wg.Done()
	n, _ := io.Copy(dst, src) // ends when either side closes
	r.bytes.Add(n)
	dst.Close()
	src.Close()
}

// Close stops accepting, closes every carried connection, and returns
// once all of the relay's goroutines have exited.
func (r *countingRelay) Close() error {
	err := r.ln.Close()
	r.mu.Lock()
	r.closed = true
	for _, c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
	return err
}
