package pipe

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/callgraph"
	"repro/internal/logging"
	"repro/internal/metrics"
	"repro/internal/routing"
	"repro/internal/tracing"
)

// legacyMarshal is the tagged encoder as it was before nested messages
// were encoded in place: every nested struct, pointer and map entry is
// encoded into a buffer of its own, and its length and bytes are then
// appended. It is kept here as the oracle that pins the pipe's wire bytes.
func legacyMarshal(v reflect.Value) []byte {
	var b []byte
	encoded := 0
	for i := 0; i < v.NumField(); i++ {
		sf := v.Type().Field(i)
		tag := sf.Tag.Get("tag")
		if !sf.IsExported() || tag == "-" {
			continue
		}
		encoded++
		num := uint64(encoded)
		if tag != "" {
			num, _ = strconv.ParseUint(tag, 10, 32)
		}
		b = legacyAppend(b, num, v.Field(i), false)
	}
	return b
}

func legacyTag(b []byte, num uint64, wire int) []byte {
	return binary.AppendUvarint(b, num<<3|uint64(wire))
}

func legacyBytes(b []byte, num uint64, inner []byte) []byte {
	b = legacyTag(b, num, 2)
	b = binary.AppendUvarint(b, uint64(len(inner)))
	return append(b, inner...)
}

// legacyAppend encodes one field value with its tag. Zero values are
// elided unless always is set, as for repeated elements and map entries.
func legacyAppend(b []byte, num uint64, v reflect.Value, always bool) []byte {
	if v.Type() == reflect.TypeOf(time.Time{}) {
		t := v.Interface().(time.Time)
		if t.IsZero() && !always {
			return b
		}
		ns := t.UnixNano()
		return binary.AppendUvarint(legacyTag(b, num, 0), uint64(ns<<1)^uint64(ns>>63))
	}
	switch v.Kind() {
	case reflect.Bool:
		if !v.Bool() && !always {
			return b
		}
		if v.Bool() {
			return append(legacyTag(b, num, 0), 1)
		}
		return append(legacyTag(b, num, 0), 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if v.Int() == 0 && !always {
			return b
		}
		return binary.AppendUvarint(legacyTag(b, num, 0), uint64(v.Int()<<1)^uint64(v.Int()>>63))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if v.Uint() == 0 && !always {
			return b
		}
		return binary.AppendUvarint(legacyTag(b, num, 0), v.Uint())
	case reflect.Float32:
		if v.Float() == 0 && !always {
			return b
		}
		return binary.LittleEndian.AppendUint32(legacyTag(b, num, 5), math.Float32bits(float32(v.Float())))
	case reflect.Float64:
		if v.Float() == 0 && !always {
			return b
		}
		return binary.LittleEndian.AppendUint64(legacyTag(b, num, 1), math.Float64bits(v.Float()))
	case reflect.String:
		if v.Len() == 0 && !always {
			return b
		}
		return legacyBytes(b, num, []byte(v.String()))
	case reflect.Struct:
		if v.IsZero() && !always {
			return b
		}
		return legacyBytes(b, num, legacyMarshal(v))
	case reflect.Pointer:
		if v.IsNil() {
			if !always {
				return b
			}
			return legacyBytes(b, num, nil)
		}
		return legacyBytes(b, num, legacyMarshal(v.Elem()))
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			if v.Len() == 0 && !always {
				return b
			}
			return legacyBytes(b, num, v.Bytes())
		}
		for i := 0; i < v.Len(); i++ {
			b = legacyAppend(b, num, v.Index(i), true)
		}
		return b
	case reflect.Map:
		iter := v.MapRange()
		for iter.Next() {
			var entry []byte
			entry = legacyAppend(entry, 1, iter.Key(), true)
			entry = legacyAppend(entry, 2, iter.Value(), true)
			b = legacyBytes(b, num, entry)
		}
		return b
	}
	panic(fmt.Sprintf("legacyAppend: unsupported kind %v", v.Kind()))
}

// sampleMessages returns one message of every kind, with nested records
// both under and over the 128 bytes one length byte can describe.
func sampleMessages() map[string]*Message {
	reg := metrics.NewRegistry()
	reg.Counter("component.served.app/Cart.AddItem").Add(1234)
	reg.Gauge("component.inflight").Set(2.5)
	reg.Histogram("component.latency_us.app/Cart.AddItem", nil).Put(350)
	long := strings.Repeat("x", 300)
	var entries []logging.Entry
	var spans []tracing.Span
	for i := 0; i < 3; i++ {
		entries = append(entries, logging.Entry{TimeNanos: int64(1e18) + int64(i), Level: int32(i),
			Component: "app/Cart", Replica: "cart/0", Msg: "added item", Attrs: []string{"user", "u" + strconv.Itoa(i)}})
		spans = append(spans, tracing.Span{Trace: uint64(i + 1), ID: 99, Component: "app/Cart", Method: "AddItem",
			StartNanos: -5, EndNanos: 7, Remote: i%2 == 0, Bytes: 512})
	}
	return map[string]*Message{
		"register": {Kind: KindRegisterReplica, ID: 7, RegisterReplica: &RegisterReplica{
			ProcletID: "cart/2", Group: "cart", Pid: 4242, Addr: "127.0.0.1:9999", Version: "v3",
			Hosted: []string{"app/Cart", ""}, Routing: map[string]uint64{"app/Cart": 7}, Epoch: 12}},
		"start":    {Kind: KindStartComponent, StartComponent: &StartComponent{Component: "app/Cart", Routed: true}},
		"load":     {Kind: KindLoadReport, LoadReport: &LoadReport{Healthy: true, CallsPerSec: 812.25, Metrics: reg.Snapshot()}},
		"load_big": {Kind: KindLoadReport, LoadReport: &LoadReport{Metrics: reg.Snapshot(), Process: append(reg.Snapshot(), metrics.Snapshot{Name: long})}},
		"logs":     {Kind: KindLogBatch, LogBatch: &LogBatch{Entries: append(entries, logging.Entry{Msg: long})}},
		"traces":   {Kind: KindTraceBatch, TraceBatch: &TraceBatch{Spans: spans}},
		"graph": {Kind: KindGraphBatch, GraphBatch: &GraphBatch{Edges: []callgraph.Edge{
			{Caller: "app/Frontend", Callee: "app/Cart", Method: "AddItem", Calls: 10, Errors: 1, Bytes: 4096, TotalNanos: 1e6, Remote: 10}}}},
		"host":  {Kind: KindHostComponents, ID: 8, HostComponents: &HostComponents{Components: []string{"app/Cart"}, Version: 3}},
		"route": {Kind: KindRoutingInfo, ID: 10, RoutingInfo: &RoutingInfo{Component: "app/Cart", Replicas: []string{"a:1", "b:2"}, Version: 5, Assignment: &routing.Assignment{Version: 5, Slices: []routing.Slice{{Start: 0, Replicas: []string{"a:1"}}, {Start: 1 << 63, Replicas: []string{"b:2"}}}}}},
		"stop":  {Kind: KindStopComponent, ID: 12, StopComponent: &StopComponent{Component: "app/Cart", Version: 6}},
		"ack":   {Kind: KindAck, ID: 7, Err: "boom"},
		"empty": {Kind: KindShutdown, RegisterReplica: &RegisterReplica{}},
	}
}

// sendBytes returns what Send writes for m.
func sendBytes(t testing.TB, m *Message) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := NewConn(nil, &out).Send(m); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// legacyFrame returns the bytes the pipe wrote for m before nested records
// were encoded in place and buffers were reused: the length, then the body.
func legacyFrame(m *Message) []byte {
	body := legacyMarshal(reflect.ValueOf(m).Elem())
	return append(binary.LittleEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// TestSendBytesMatchLegacyEncoder pins the pipe's wire bytes: for every
// message kind, Send writes exactly what the pipe wrote before nested
// records were encoded in place, including records of 128 bytes and more,
// whose length takes two varint bytes.
func TestSendBytesMatchLegacyEncoder(t *testing.T) {
	samples := sampleMessages()
	names := make([]string, 0, len(samples))
	for name := range samples {
		names = append(names, name)
	}
	sort.Strings(names)
	conn := NewConn(nil, nil)
	for _, name := range names {
		m := samples[name]
		want := legacyFrame(m)
		for i := 0; i < 2; i++ { // a fresh and a reused send buffer
			var out bytes.Buffer
			conn.w = &out
			if err := conn.Send(m); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("%s, send %d: Send wrote\n%x\nthe legacy encoder\n%x", name, i, out.Bytes(), want)
			}
		}
	}
	if big := samples["load_big"]; len(legacyMarshal(reflect.ValueOf(big.LoadReport).Elem())) < 128 {
		t.Fatal("load_big has no nested record of 128 bytes or more")
	}
}

// FuzzPipeMessage feeds arbitrary message bodies to Recv. Decoding never
// panics; every message it accepts re-encodes and decodes to an equal
// value; and Send's bytes for that message equal the legacy encoder's. The
// committed corpus (testdata/fuzz/FuzzPipeMessage) holds every message in
// sampleMessages and hand-made malformed, interleaved and duplicated
// records.
func FuzzPipeMessage(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		frame := append(binary.LittleEndian.AppendUint32(nil, uint32(len(body))), body...)
		m, err := NewConn(bytes.NewReader(frame), nil).Recv()
		if err != nil {
			return
		}
		enc := sendBytes(t, m)
		again, err := NewConn(bytes.NewReader(enc), nil).Recv()
		if err != nil {
			t.Fatalf("re-encoded message does not decode: %v\n%x", err, enc)
		}
		if !sameValue(reflect.ValueOf(m), reflect.ValueOf(again)) {
			t.Fatalf("round trip changed the message:\n%+v\n%+v", m, again)
		}
		// Map entries are encoded in iteration order, so two encodings of
		// a map agree byte for byte only when it has at most one entry.
		if r := m.RegisterReplica; r != nil {
			for k := range r.Routing {
				if len(r.Routing) > 1 {
					delete(r.Routing, k)
				}
			}
		}
		if got, want := sendBytes(t, m), legacyFrame(m); !bytes.Equal(got, want) {
			t.Fatalf("Send wrote\n%x\nthe legacy encoder\n%x", got, want)
		}
	})
}

// sameValue is reflect.DeepEqual with floats compared bit for bit, so a
// decoded NaN equals itself.
func sameValue(a, b reflect.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameValue(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.Len() != b.Len() || a.IsNil() != b.IsNil() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.Len() != b.Len() || a.IsNil() != b.IsNil() {
			return false
		}
		iter := a.MapRange()
		for iter.Next() {
			bv := b.MapIndex(iter.Key())
			if !bv.IsValid() || !sameValue(iter.Value(), bv) {
				return false
			}
		}
		return true
	case reflect.String:
		return a.String() == b.String()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return a.Uint() == b.Uint()
	}
	panic(fmt.Sprintf("sameValue: unsupported kind %v", a.Kind()))
}
