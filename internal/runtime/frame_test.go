package runtime

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"powerlog/internal/compiler"
	"powerlog/internal/edb"
	"powerlog/internal/gen"
	"powerlog/internal/graph"
	"powerlog/internal/progs"
	"powerlog/internal/transport"
)

// foreignKeys are Data-frame keys worker 0 of a two-worker fleet over n
// vertices must refuse: negative, at or beyond n, and owned by worker 1.
func foreignKeys(n int) []int64 { return []int64{-3, int64(n), int64(n) + 1<<20, 1} }

func framePlan(t *testing.T) *compiler.Plan {
	t.Helper()
	db := edb.NewDB()
	db.SetGraph("edge", gen.Uniform(100, 600, 10, 91))
	return compilePlan(t, progs.SSSP, db)
}

// badFrame is a Data batch whose middle entry carries key; the owned
// keys around it make sure the check covers the whole batch, not its
// first entry.
func badFrame(key int64) transport.Message {
	kvs := transport.GetBatch(3)
	kvs = append(kvs, transport.KV{K: 0, V: 1}, transport.KV{K: key, V: 2}, transport.KV{K: 2, V: 3})
	return transport.Message{Kind: transport.Data, From: 1, Round: 1, KVs: kvs}
}

// awaitFrameError runs one worker until it returns and checks that it
// stopped on a FrameError naming key.
func awaitFrameError(t *testing.T, key int64, done <-chan error) {
	t.Helper()
	select {
	case err := <-done:
		var fe *FrameError
		if !errors.As(err, &fe) {
			t.Fatalf("key %d: want a *FrameError, got %v", key, err)
		}
		if fe.Key != key || fe.Worker != 0 {
			t.Fatalf("key %d: FrameError names worker %d key %d", key, fe.Worker, fe.Key)
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("key %d: worker neither folded nor refused the frame", key)
	}
}

// TestForeignKeyFrameChannel injects a Data frame with a key outside the
// receiving worker's Dense shard over the channel transport. The worker
// must refuse it with a FrameError from RunWorker — before this check a
// negative key or one ≥ N indexed outside the shard and killed the
// process.
func TestForeignKeyFrameChannel(t *testing.T) {
	plan := framePlan(t)
	for _, key := range foreignKeys(plan.N) {
		t.Run(fmt.Sprint(key), func(t *testing.T) {
			net := transport.NewChannelNetwork(2, 4096)
			defer net.Close()
			done := make(chan error, 1)
			go func() {
				_, err := RunWorker(plan, Config{Mode: MRASyncAsync, MaxWall: 10 * time.Second}, net.Conn(0))
				done <- err
			}()
			if err := net.Conn(1).Send(0, badFrame(key)); err != nil {
				t.Fatal(err)
			}
			awaitFrameError(t, key, done)
		})
	}
}

// TestForeignKeyFrameTCP is the same injection through the TCP codec:
// a peer endpoint encodes the frame, the receiver decodes and refuses it.
func TestForeignKeyFrameTCP(t *testing.T) {
	plan := framePlan(t)
	for _, key := range foreignKeys(plan.N) {
		t.Run(fmt.Sprint(key), func(t *testing.T) {
			const workers = 2
			boot := []string{"127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0"}
			eps := make([]*transport.TCPConn, workers+1)
			for i := range eps {
				c, err := transport.NewTCPEndpoint(i, workers, boot)
				if err != nil {
					t.Fatal(err)
				}
				eps[i] = c
				defer c.Close()
			}
			addrs := make([]string, len(eps))
			for i, c := range eps {
				addrs[i] = c.Addr()
			}
			for _, c := range eps {
				c.SetAddressBook(addrs)
			}
			done := make(chan error, 1)
			go func() {
				_, err := RunWorker(plan, Config{Mode: MRASyncAsync, MaxWall: 10 * time.Second}, eps[0])
				done <- err
			}()
			if err := eps[1].Send(0, badFrame(key)); err != nil {
				t.Fatal(err)
			}
			awaitFrameError(t, key, done)
		})
	}
}

// TestForeignKeyFrameSession injects the frame into a parked session's
// fleet. The worker that refuses it goes silent; the master's collect
// deadline notices, and the session must not respawn the slot (the
// replacement would sit on the same link) but fail the Apply with the
// FrameError. Both a barriered and an async mode are covered: only the
// latter has a respawn path.
func TestForeignKeyFrameSession(t *testing.T) {
	for _, mode := range []Mode{MRASync, MRASyncAsync} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := sessCfg(mode)
			cfg.Workers = 2
			cfg.CollectTimeout = 300 * time.Millisecond
			s, err := Open(framePlan(t), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			key := int64(s.plan.N) + 7
			if err := s.net.Conn(1).Send(0, badFrame(key)); err != nil {
				t.Fatal(err)
			}
			_, err = s.Apply(Mutation{Inserts: []graph.Edge{{Src: 0, Dst: 5, W: 1}}})
			var fe *FrameError
			if !errors.As(err, &fe) || fe.Key != key {
				t.Fatalf("Apply after a foreign-key frame: want a FrameError for key %d, got %v", key, err)
			}
		})
	}
}
