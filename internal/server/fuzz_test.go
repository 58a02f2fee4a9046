package server_test

import (
	"encoding/binary"
	"net"
	"testing"

	"mgsp/internal/server"
)

// frame returns one length-prefixed request frame.
func frame(op byte, id uint32, body []byte) []byte {
	p := append(server.AppendRequestHeader(nil, op, id), body...)
	return append(binary.LittleEndian.AppendUint32(nil, uint32(len(p))), p...)
}

// FuzzFrame feeds arbitrary bytes to a connection that has already bound a
// tenant and opened handle 1, so the bytes reach ReadFrame,
// ParseRequestHeader and every per-opcode body decoder with a live handle to
// aim at. Every request must end in a well-formed reply or a closed
// connection; a panic anywhere in the server kills the fuzz process, and a
// request that never finishes hangs ServeConn.
func FuzzFrame(f *testing.F) {
	u32 := func(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
	u64 := func(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	f.Add(frame(server.OpWrite, 1, append(u64(u32(1), 4096), "payload"...)))
	f.Add(frame(server.OpRead, 2, nil))
	f.Add(frame(server.OpRead, 2, cat(u32(1), u64(nil, 0), u32(512))))
	f.Add(frame(server.OpRead, 3, cat(u32(1), u64(nil, 1<<62), u32(server.MaxData))))
	f.Add(frame(server.OpWrite, 4, append(u64(u32(1), 1<<62), 'x')))
	f.Add(frame(server.OpFsync, 5, u32(1)))
	f.Add(cat(frame(server.OpSnapshot, 6, u32(1)), frame(server.OpDrop, 7, u64(u32(1), 1))))
	f.Add(frame(server.OpStat, 8, nil))
	f.Add(cat(frame(server.OpClose, 9, u32(1)), frame(server.OpFsync, 10, u32(1))))
	f.Add(frame(server.OpOpen, 11, append([]byte{server.OpenCreate, 1}, 'g')))
	f.Add(frame(server.OpHello, 12, []byte{1, 'u'}))
	f.Add(frame(0xEE, 13, nil))
	f.Add(frame(server.OpWrite, 14, nil)[:7])
	f.Add([]byte{1, 0, 0})
	f.Add(u32(server.MaxFrame + 1))

	srv, err := server.New(server.Config{DevSize: 16 << 20})
	if err != nil {
		f.Fatal(err)
	}
	defer srv.Close()
	setup := cat(
		frame(server.OpHello, 1, append([]byte{4}, "fuzz"...)),
		frame(server.OpOpen, 2, append([]byte{server.OpenCreate, 1}, 'f')),
	)

	f.Fuzz(func(t *testing.T, data []byte) {
		cc, sc := net.Pipe()
		served := make(chan struct{})
		go func() {
			defer close(served)
			srv.ServeConn(sc)
		}()
		// net.Pipe is unbuffered: replies must be drained concurrently or
		// the server blocks writing them.
		replies := make(chan error, 1)
		go func() {
			for {
				p, err := server.ReadFrame(cc)
				if err != nil {
					replies <- nil // the server closed the connection
					return
				}
				if _, _, _, _, err := server.ParseResponseHeader(p); err != nil {
					replies <- err
					return
				}
			}
		}()
		if _, err := cc.Write(setup); err != nil {
			t.Fatalf("setup: %v", err)
		}
		cc.Write(data) // fails once the server hangs up on a bad frame
		cc.Close()
		<-served
		if err := <-replies; err != nil {
			t.Fatalf("malformed reply: %v", err)
		}
	})
}
