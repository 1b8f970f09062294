package forkoram

import (
	"bytes"
	"testing"

	"forkoram/internal/rng"
)

func newDevice(t *testing.T, v Variant) *Device {
	t.Helper()
	d, err := NewDevice(DeviceConfig{Blocks: 1024, BlockSize: 32, Variant: v, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func pay32(b byte) []byte {
	d := make([]byte, 32)
	for i := range d {
		d[i] = b
	}
	return d
}

func TestDeviceConfigValidation(t *testing.T) {
	if _, err := NewDevice(DeviceConfig{}); err == nil {
		t.Fatal("zero blocks accepted")
	}
	if _, err := NewDevice(DeviceConfig{Blocks: 8, Key: []byte("short")}); err == nil {
		t.Fatal("short key accepted")
	}
	if _, err := NewDevice(DeviceConfig{Blocks: 8, Variant: Variant(9)}); err == nil {
		t.Fatal("bogus variant accepted")
	}
}

func TestDeviceReadUnwrittenIsZero(t *testing.T) {
	for _, v := range []Variant{Baseline, Fork} {
		d := newDevice(t, v)
		got, err := d.Read(3)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, make([]byte, 32)) {
			t.Fatalf("variant %d: unwritten block not zero", v)
		}
	}
}

func TestDeviceReadYourWrites(t *testing.T) {
	for _, v := range []Variant{Baseline, Fork} {
		d := newDevice(t, v)
		r := rng.New(11)
		shadow := map[uint64][]byte{}
		for i := 0; i < 600; i++ {
			addr := r.Uint64n(200)
			if r.Float64() < 0.5 {
				p := pay32(byte(r.Uint64()))
				if err := d.Write(addr, p); err != nil {
					t.Fatal(err)
				}
				shadow[addr] = p
			} else {
				got, err := d.Read(addr)
				if err != nil {
					t.Fatal(err)
				}
				want := shadow[addr]
				if want == nil {
					want = make([]byte, 32)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("variant %d step %d addr %d mismatch", v, i, addr)
				}
			}
		}
	}
}

func TestDeviceBoundsAndSizes(t *testing.T) {
	d := newDevice(t, Fork)
	if _, err := d.Read(1024); err == nil {
		t.Fatal("out-of-range read accepted")
	}
	if err := d.Write(0, []byte{1}); err == nil {
		t.Fatal("short write accepted")
	}
}

func TestDeviceBatchSchedulingCorrect(t *testing.T) {
	d := newDevice(t, Fork)
	var ops []BatchOp
	for i := uint64(0); i < 50; i++ {
		ops = append(ops, BatchOp{Addr: i, Write: true, Data: pay32(byte(i))})
	}
	for i := uint64(0); i < 50; i++ {
		ops = append(ops, BatchOp{Addr: i})
	}
	res, err := d.Batch(ops)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if res[i] != nil {
			t.Fatalf("write op %d returned data", i)
		}
		got := res[50+i]
		if !bytes.Equal(got, pay32(byte(i))) {
			t.Fatalf("batch read %d: got %x", i, got[:4])
		}
	}
}

func TestDeviceBatchSameAddressOrder(t *testing.T) {
	d := newDevice(t, Fork)
	ops := []BatchOp{
		{Addr: 5, Write: true, Data: pay32(1)},
		{Addr: 5, Write: true, Data: pay32(2)},
		{Addr: 5},
		{Addr: 5, Write: true, Data: pay32(3)},
	}
	res, err := d.Batch(ops)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res[2], pay32(2)) {
		t.Fatalf("read between writes saw %x, want 2s", res[2][:4])
	}
	got, err := d.Read(5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pay32(3)) {
		t.Fatalf("final value %x, want 3s", got[:4])
	}
}

func TestDeviceBaselineBatchFallback(t *testing.T) {
	d := newDevice(t, Baseline)
	res, err := d.Batch([]BatchOp{
		{Addr: 1, Write: true, Data: pay32(9)},
		{Addr: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res[1], pay32(9)) {
		t.Fatal("baseline batch wrong result")
	}
}

func TestDeviceStats(t *testing.T) {
	d := newDevice(t, Fork)
	for i := uint64(0); i < 20; i++ {
		if err := d.Write(i, pay32(1)); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stats()
	if st.Writes != 20 || st.Reads != 0 {
		t.Fatalf("op counts %+v", st)
	}
	if st.RealAccesses == 0 || st.BucketWrites == 0 {
		t.Fatalf("no tree activity recorded: %+v", st)
	}
	if st.PathLength == 0 {
		t.Fatal("path length missing")
	}
}

func TestDeviceForkCheaperThanBaselinePerOp(t *testing.T) {
	// The headline property at the device level: batch workloads move
	// fewer buckets per operation under Fork than under Baseline.
	run := func(v Variant) float64 {
		d := newDevice(t, v)
		var ops []BatchOp
		r := rng.New(3)
		for i := 0; i < 300; i++ {
			ops = append(ops, BatchOp{Addr: r.Uint64n(900), Write: true, Data: pay32(byte(i))})
		}
		if _, err := d.Batch(ops); err != nil {
			t.Fatal(err)
		}
		st := d.Stats()
		return float64(st.BucketReads+st.BucketWrites) / 300
	}
	base := run(Baseline)
	fork := run(Fork)
	if fork >= base {
		t.Fatalf("fork buckets/op %.1f >= baseline %.1f", fork, base)
	}
}

func TestSimulationFacade(t *testing.T) {
	cfg := DefaultSimConfig(SchemeForkPath)
	cfg.DataBlocks = 1 << 16
	cfg.OnChipEntries = 1 << 9
	cfg.RequestsPerCore = 500
	res, err := RunSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalAccesses() == 0 {
		t.Fatal("no accesses")
	}
}

func TestDeviceWithIntegrity(t *testing.T) {
	for _, v := range []Variant{Baseline, Fork} {
		d, err := NewDevice(DeviceConfig{Blocks: 512, BlockSize: 32, Variant: v, Integrity: true, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(3)
		shadow := map[uint64][]byte{}
		for i := 0; i < 200; i++ {
			addr := r.Uint64n(100)
			if r.Float64() < 0.5 {
				p := pay32(byte(r.Uint64()))
				if err := d.Write(addr, p); err != nil {
					t.Fatal(err)
				}
				shadow[addr] = p
			} else {
				got, err := d.Read(addr)
				if err != nil {
					t.Fatal(err)
				}
				want := shadow[addr]
				if want == nil {
					want = make([]byte, 32)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("variant %d: integrity-protected RYW broken", v)
				}
			}
		}
		root, ok := d.IntegrityRoot()
		if !ok || root == [32]byte{} {
			t.Fatal("integrity root missing")
		}
	}
}

func TestDeviceIntegrityRootOffByDefault(t *testing.T) {
	d := newDevice(t, Fork)
	if _, ok := d.IntegrityRoot(); ok {
		t.Fatal("integrity root reported without Integrity enabled")
	}
}
