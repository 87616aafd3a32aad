package rpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
)

// fuzzMaxFrame bounds the frame lengths FuzzFrameReader feeds the readers.
// Both readers allocate a declared length up front, so a 4-byte prefix
// could otherwise ask for maxFrameSize (512 MiB) per input; 1 MiB still
// reaches the dedicated-buffer path for frames larger than readBufSize
// (TestFrameReaderOversizedFrame pins that path directly). Lengths above
// maxFrameSize allocate nothing and stay in.
const fuzzMaxFrame = 1 << 20

// errConnReset stands in for a transport failure other than EOF.
var errConnReset = errors.New("connection reset")

// FuzzFrameReader drives the batched frameReader against the reference
// readFrameInto over the same byte stream, cut into Reads at arbitrary
// boundaries. cuts gives the Read sizes, one byte each, with whatever is
// left after them delivered in one Read. mode bit 0 returns the stream's
// final error together with its last bytes; bit 1 makes that error a
// connection reset instead of io.EOF. Neither reader may panic, both must
// yield the same frames, and both must stop with an error at the same
// point: a clean EOF only at a frame boundary with the whole stream
// consumed, the same frame-limit error, or the same transport error.
func FuzzFrameReader(f *testing.F) {
	three := append(append(mkFrame([]byte("alpha")), mkFrame(nil)...), mkFrame([]byte("gamma-gamma"))...)
	f.Add(three, []byte{}, uint8(0))
	f.Add(three, []byte{1, 0, 3, 9, 2}, uint8(1))
	f.Add(three[:len(three)-3], []byte{6}, uint8(2))

	f.Fuzz(func(t *testing.T, data, cuts []byte, mode uint8) {
		for pos := 0; pos+4 <= len(data); {
			n := int(binary.LittleEndian.Uint32(data[pos:]))
			if n > maxFrameSize {
				break
			}
			if n > fuzzMaxFrame {
				t.Skip("frame length too large to allocate per input")
			}
			pos += 4 + n
		}
		final := io.EOF
		if mode&2 != 0 {
			final = errConnReset
		}
		reader := func() io.Reader {
			var chunks [][]byte
			rest := data
			for _, c := range cuts {
				k := min(int(c), len(rest))
				chunks = append(chunks, rest[:k])
				rest = rest[k:]
			}
			chunks = append(chunks, rest)
			cr := &chunkReader{chunks: chunks, final: final}
			if mode&1 != 0 {
				cr.errs = make([]error, len(chunks))
				cr.errs[len(chunks)-1] = final
			}
			return cr
		}

		var want [][]byte
		var wantErr error
		consumed := 0
		ref := reader()
		var buf []byte
		for {
			frame, err := readFrameInto(ref, &buf)
			if err != nil {
				wantErr = err
				break
			}
			want = append(want, append([]byte(nil), frame...))
			consumed += 4 + len(frame)
		}

		var got [][]byte
		var gotErr error
		fr := newFrameReader(reader(), nil, nil, nil)
		for {
			frame, rb, err := fr.next()
			if err != nil {
				gotErr = err
				break
			}
			got = append(got, append([]byte(nil), frame...))
			rb.release()
		}
		fr.close()

		if len(got) != len(want) {
			t.Fatalf("frameReader yielded %d frames, reference %d (errors %v / %v)", len(got), len(want), gotErr, wantErr)
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("frame %d: frameReader %q, reference %q", i, got[i], want[i])
			}
		}
		isLimit := func(err error) bool { return strings.Contains(err.Error(), "exceeds limit") }
		switch {
		case isLimit(gotErr) || isLimit(wantErr):
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("frame limit: frameReader stopped with %v, reference with %v", gotErr, wantErr)
			}
		case final == errConnReset:
			if gotErr != errConnReset || wantErr != errConnReset {
				t.Fatalf("reset: frameReader stopped with %v, reference with %v", gotErr, wantErr)
			}
		default:
			// The reference reports io.EOF, not ErrUnexpectedEOF, when a
			// frame's header arrived but none of its body did; only a
			// stream that ended at a frame boundary ended cleanly.
			wantClean := wantErr == io.EOF && consumed == len(data)
			if gotClean := gotErr == io.EOF; gotClean != wantClean {
				t.Fatalf("frameReader stopped with %v, reference with %v after %d of %d bytes", gotErr, wantErr, consumed, len(data))
			}
		}
	})
}
