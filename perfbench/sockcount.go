package main

import (
	"encoding/binary"
	"net"
	"sync/atomic"

	"fairnn/internal/wire"
)

// sockCounter counts what the fleet's server sockets carry: bytes in
// both directions, and the request frames of the per-query plan ops
// (arm, segment, pick), parsed from the frame headers the servers read.
// It is the benchmark's own count, independent of the obs instruments.
type sockCounter struct {
	bytes, frames atomic.Int64
}

// countingListener wraps every accepted connection in a countingConn.
type countingListener struct {
	net.Listener
	c *sockCounter
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: conn, c: l.c}, nil
}

// countingConn counts a server connection's traffic. Reads come from the
// connection's one reader goroutine, so the frame parser state needs no
// lock.
type countingConn struct {
	net.Conn
	c    *sockCounter
	hdr  [wire.HeaderSize]byte
	hn   int // header bytes collected
	skip int // payload bytes still to pass over
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.bytes.Add(int64(n))
	for b := p[:n]; len(b) > 0; {
		if c.skip > 0 {
			k := min(c.skip, len(b))
			c.skip -= k
			b = b[k:]
			continue
		}
		k := copy(c.hdr[c.hn:], b)
		c.hn += k
		b = b[k:]
		if c.hn == wire.HeaderSize {
			switch wire.Op(c.hdr[3]) {
			case wire.OpArm, wire.OpSegment, wire.OpPick:
				c.c.frames.Add(1)
			}
			c.skip = int(binary.LittleEndian.Uint32(c.hdr[12:16]))
			c.hn = 0
		}
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.bytes.Add(int64(n))
	return n, err
}
