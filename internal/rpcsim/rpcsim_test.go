package rpcsim

import (
	"bytes"
	"compress/flate"
	"errors"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"zebraconf/internal/simtime"
)

func testScale() *simtime.Scale {
	return &simtime.Scale{Tick: 100 * time.Microsecond}
}

func TestEncodeDecodeAllProfiles(t *testing.T) {
	t.Parallel()
	payload := []byte("the quick brown fox, repeated: aaaaaaaaaaaaaaaaaaaaaa")
	for _, codec := range []string{CodecNone, CodecDeflate, CodecRLE} {
		for _, encrypt := range []bool{false, true} {
			sec := Security{Codec: codec, Encrypt: encrypt, Key: "k1"}
			wire, err := Encode(sec, payload)
			if err != nil {
				t.Fatalf("Encode(%s/%v): %v", codec, encrypt, err)
			}
			out, err := Decode(sec, wire)
			if err != nil {
				t.Fatalf("Decode(%s/%v): %v", codec, encrypt, err)
			}
			if !bytes.Equal(out, payload) {
				t.Fatalf("round trip (%s/%v) corrupted payload", codec, encrypt)
			}
		}
	}
}

func TestDecodeMismatchMatrix(t *testing.T) {
	t.Parallel()
	payload := []byte("records records records")
	cases := []struct {
		name       string
		send, recv Security
		wantErr    error
	}{
		{"encrypted-to-plain", Security{Encrypt: true, Key: "k"}, Security{}, ErrBadRecord},
		{"plain-to-encrypted", Security{}, Security{Encrypt: true, Key: "k"}, ErrBadRecord},
		{"wrong-key", Security{Encrypt: true, Key: "k1"}, Security{Encrypt: true, Key: "k2"}, ErrBadRecord},
		{"compressed-to-plain", Security{Codec: CodecDeflate}, Security{}, ErrBadHeader},
		{"plain-to-compressed", Security{}, Security{Codec: CodecDeflate}, ErrBadHeader},
		{"codec-skew", Security{Codec: CodecDeflate}, Security{Codec: CodecRLE}, ErrUnknownCodec},
	}
	for _, c := range cases {
		wire, err := Encode(c.send, payload)
		if err != nil {
			t.Fatalf("%s: encode: %v", c.name, err)
		}
		_, err = Decode(c.recv, wire)
		if err == nil {
			t.Fatalf("%s: decode succeeded across mismatched settings", c.name)
		}
		if !errors.Is(err, c.wantErr) {
			t.Fatalf("%s: error %v, want class %v", c.name, err, c.wantErr)
		}
	}
}

// Property: every (codec, encrypt) profile round-trips arbitrary payloads.
func TestWireRoundTripProperty(t *testing.T) {
	t.Parallel()
	fn := func(payload []byte, codecSel, encrypt bool) bool {
		sec := Security{Key: "prop"}
		if codecSel {
			sec.Codec = CodecRLE
		} else {
			sec.Codec = CodecDeflate
		}
		sec.Encrypt = encrypt
		wire, err := Encode(sec, payload)
		if err != nil {
			return false
		}
		out, err := Decode(sec, wire)
		return err == nil && bytes.Equal(out, payload)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRLEEdgeCases(t *testing.T) {
	t.Parallel()
	long := bytes.Repeat([]byte{0xAB}, 1000) // forces run-length splitting at 255
	enc := rleEncode(long)
	dec, err := rleDecode(enc)
	if err != nil || !bytes.Equal(dec, long) {
		t.Fatalf("long-run RLE round trip failed: %v", err)
	}
	if _, err := rleDecode([]byte{1}); err == nil {
		t.Fatal("odd-length RLE stream accepted")
	}
	if _, err := rleDecode([]byte{0, 'x'}); err == nil {
		t.Fatal("zero-length run accepted")
	}
	if out := rleEncode(nil); len(out) != 0 {
		t.Fatalf("rleEncode(nil) = %v", out)
	}
}

func TestXorKeystreamInvolution(t *testing.T) {
	t.Parallel()
	data := []byte("sensitive bytes")
	once := xorKeystream("key", data)
	if bytes.Equal(once, data) {
		t.Fatal("keystream is a no-op")
	}
	twice := xorKeystream("key", once)
	if !bytes.Equal(twice, data) {
		t.Fatal("applying the keystream twice did not restore the input")
	}
}

func TestFabricServeDialCall(t *testing.T) {
	t.Parallel()
	fx := NewFabric()
	scale := testScale()
	sec := Security{Protection: "auth", Version: 3}
	_, err := fx.Serve("svc", sec, scale, func(method string, payload []byte) ([]byte, error) {
		return append([]byte(method+":"), payload...), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := fx.Dial("svc", sec, scale)
	if err != nil {
		t.Fatal(err)
	}
	out, err := conn.Call("echo", []byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "echo:hi" {
		t.Fatalf("Call = %q", out)
	}
}

func TestFabricHandshakeFailures(t *testing.T) {
	t.Parallel()
	fx := NewFabric()
	scale := testScale()
	srvSec := Security{Protection: "privacy", Version: 2, RequireToken: true}
	if _, err := fx.Serve("locked", srvSec, scale, nil); err != nil {
		t.Fatal(err)
	}
	cases := []Security{
		{Protection: "auth", Version: 2, RequireToken: true},     // protection skew
		{Protection: "privacy", Version: 1, RequireToken: true},  // version skew
		{Protection: "privacy", Version: 2, RequireToken: false}, // token skew
	}
	for i, sec := range cases {
		if _, err := fx.Dial("locked", sec, scale); !errors.Is(err, ErrHandshake) {
			t.Fatalf("case %d: err = %v, want handshake failure", i, err)
		}
	}
	if _, err := fx.Dial("nowhere", srvSec, scale); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("dial to unbound address: %v", err)
	}
}

func TestFabricDuplicateBindAndClose(t *testing.T) {
	t.Parallel()
	fx := NewFabric()
	scale := testScale()
	s, err := fx.Serve("addr", Security{}, scale, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fx.Serve("addr", Security{}, scale, nil); err == nil {
		t.Fatal("duplicate bind succeeded")
	}
	s.Close()
	s.Close() // idempotent
	if _, err := fx.Dial("addr", Security{}, scale); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("dial after close: %v", err)
	}
	if _, err := fx.Serve("addr", Security{}, scale, nil); err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
}

func TestCallTimeoutAndKeepalive(t *testing.T) {
	t.Parallel()
	fx := NewFabric()
	scale := testScale()
	srv, err := fx.Serve("slow", Security{}, scale, func(string, []byte) ([]byte, error) {
		return []byte("done"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetDelayTicks(60)

	// Without pings, a 20-tick timeout trips on the 60-tick handler.
	conn, err := fx.Dial("slow", Security{}, scale)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetTimeoutTicks(20)
	if _, err := conn.Call("op", nil); !errors.Is(err, ErrTimeout) {
		t.Fatalf("expected timeout, got %v", err)
	}

	// With pings every 5 ticks, the same call survives.
	srv.SetPingTicks(5)
	if out, err := conn.Call("op", nil); err != nil || string(out) != "done" {
		t.Fatalf("keepalive call = (%q, %v)", out, err)
	}
}

func TestCallHandlerError(t *testing.T) {
	t.Parallel()
	fx := NewFabric()
	scale := testScale()
	if _, err := fx.Serve("err", Security{}, scale, func(string, []byte) ([]byte, error) {
		return nil, errors.New("application fault")
	}); err != nil {
		t.Fatal(err)
	}
	conn, err := fx.Dial("err", Security{}, scale)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Call("x", nil); err == nil || !strings.Contains(err.Error(), "application fault") {
		t.Fatalf("handler error not propagated: %v", err)
	}
}

func TestCallAcrossMismatchedTransport(t *testing.T) {
	t.Parallel()
	fx := NewFabric()
	scale := testScale()
	if _, err := fx.Serve("enc", Security{Encrypt: true, Key: "k"}, scale, func(_ string, p []byte) ([]byte, error) {
		return p, nil
	}); err != nil {
		t.Fatal(err)
	}
	// Handshake fields match; payload encryption differs -> decode error
	// at the server.
	conn, err := fx.Dial("enc", Security{}, scale)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Call("p", []byte("data")); err == nil || !errors.Is(err, ErrBadRecord) {
		t.Fatalf("mismatched transport call: %v", err)
	}
}

func TestJSONHandlerAndCallJSON(t *testing.T) {
	t.Parallel()
	fx := NewFabric()
	scale := testScale()
	type msg struct{ N int }
	h := JSONHandler(map[string]func([]byte) (any, error){
		"inc": func(payload []byte) (any, error) {
			var m msg
			if err := Unmarshal("inc", payload, &m); err != nil {
				return nil, err
			}
			return msg{N: m.N + 1}, nil
		},
	})
	if _, err := fx.Serve("json", Security{}, scale, h); err != nil {
		t.Fatal(err)
	}
	conn, err := fx.Dial("json", Security{}, scale)
	if err != nil {
		t.Fatal(err)
	}
	var out msg
	if err := conn.CallJSON("inc", msg{N: 41}, &out); err != nil || out.N != 42 {
		t.Fatalf("CallJSON = (%+v, %v)", out, err)
	}
	if err := conn.CallJSON("nope", msg{}, nil); err == nil {
		t.Fatal("unknown method accepted")
	}
}

// TestResetTimerDiscardsStaleExpiry pins the keepalive reset: a timer that
// fired while nobody was receiving must not deliver that old expiry after
// it is re-armed.
func TestResetTimerDiscardsStaleExpiry(t *testing.T) {
	t.Parallel()
	timer := time.NewTimer(time.Millisecond)
	defer timer.Stop()
	// Wait until the expiry is buffered in the channel, unreceived. With
	// unbuffered (synchronous) timer channels it never is; the reset must
	// still hold the new deadline below.
	for give := time.Now().Add(time.Second); len(timer.C) == 0 && time.Now().Before(give); {
		time.Sleep(100 * time.Microsecond)
	}
	const wait = 30 * time.Millisecond
	start := time.Now()
	resetTimer(timer, wait)
	select {
	case <-timer.C:
		if got := time.Since(start); got < wait {
			t.Fatalf("timer delivered after %v, before its new %v deadline", got, wait)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("re-armed timer never fired")
	}
}

// TestEncodeReusedWritersAreDeterministic runs Encode repeatedly and from
// concurrent goroutines, so recycled DEFLATE writers are shared across
// messages: every output must equal the first one and round-trip.
func TestEncodeReusedWritersAreDeterministic(t *testing.T) {
	t.Parallel()
	payload := bytes.Repeat([]byte("heartbeat blk_1073741825 len=134217728; "), 40)
	for _, codec := range []string{CodecNone, CodecDeflate, CodecRLE} {
		for _, encrypt := range []bool{false, true} {
			sec := Security{Codec: codec, Encrypt: encrypt, Key: "k1"}
			want, err := Encode(sec, payload)
			if err != nil {
				t.Fatalf("Encode(%s/%v): %v", codec, encrypt, err)
			}
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 25; i++ {
						// Interleave another payload so the next use of a
						// writer follows different state.
						if _, err := Encode(sec, payload[:len(payload)/3]); err != nil {
							t.Errorf("Encode(%s/%v): %v", codec, encrypt, err)
							return
						}
						wire, err := Encode(sec, payload)
						if err != nil {
							t.Errorf("Encode(%s/%v): %v", codec, encrypt, err)
							return
						}
						if !bytes.Equal(wire, want) {
							t.Errorf("Encode(%s/%v) differs across calls", codec, encrypt)
							return
						}
						out, err := Decode(sec, wire)
						if err != nil || !bytes.Equal(out, payload) {
							t.Errorf("round trip (%s/%v) = %v, payload intact %v", codec, encrypt, err, bytes.Equal(out, payload))
							return
						}
					}
				}()
			}
			wg.Wait()
		}
	}
	// A recycled writer must emit what a brand-new one does.
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := compress(CodecDeflate, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf.Bytes()) {
		t.Fatal("pooled DEFLATE output differs from a fresh writer's")
	}
}
