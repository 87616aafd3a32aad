package rpc

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
)

// registerBytes installs a handler that returns its result as a plain
// slice: the result is copied behind ResponseHeadroom scratch, so tests
// can write handlers without managing pooled encoders.
func registerBytes(s *Server, fullName string, h func(ctx context.Context, args []byte) ([]byte, error)) {
	s.RegisterFramed(fullName, func(ctx context.Context, args []byte) ([]byte, BufOwner, error) {
		out, err := h(ctx, args)
		if err != nil {
			return nil, nil, err
		}
		framed := make([]byte, ResponseHeadroom+len(out))
		copy(framed[ResponseHeadroom:], out)
		return framed, nil, nil
	})
}

// callBytes issues one CallFramed with args copied behind PayloadHeadroom
// scratch, and copies the result payload out before releasing the
// Response, so the returned slice is the caller's to keep.
func callBytes(ctx context.Context, c *Client, id MethodID, args []byte, opts CallOptions) ([]byte, error) {
	framed := make([]byte, PayloadHeadroom+len(args))
	copy(framed[PayloadHeadroom:], args)
	resp, err := c.CallFramed(ctx, id, framed, opts)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(resp.Data()))
	copy(out, resp.Data())
	resp.Release()
	return out, nil
}

// readFrameInto is the reference frame reader: it reads one
// length-prefixed frame payload into *buf, growing it as needed, and
// returns the filled prefix of *buf. The result aliases *buf: anything
// retained beyond the next readFrameInto on the same buffer must be copied
// out first. Pass a fresh buffer (new([]byte)) to keep every frame.
func readFrameInto(r io.Reader, buf *[]byte) ([]byte, error) {
	// The length prefix is read into the target buffer itself (and then
	// overwritten by the payload): a local [4]byte would escape through the
	// io.Reader interface and cost a heap allocation per frame.
	if cap(*buf) < 4 {
		*buf = make([]byte, 0, 512)
	}
	lenBuf := (*buf)[:4]
	if _, err := io.ReadFull(r, lenBuf); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(lenBuf)
	if n > maxFrameSize {
		return nil, fmt.Errorf("rpc: frame length %d exceeds limit", n)
	}
	if cap(*buf) < int(n) {
		*buf = make([]byte, n)
	}
	b := (*buf)[:n]
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return b, nil
}
