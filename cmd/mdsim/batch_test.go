package main

import (
	"strings"
	"testing"
	"time"
)

func batchOpts(n int) runOpts {
	o := opts("reference")
	o.batch = n
	o.steps = 20
	o.ckptEvery = 5
	return o
}

func TestBatchCleanRun(t *testing.T) {
	o := batchOpts(4)
	o.maxInflight = 2
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

func TestBatchPoisonedReplicaDoesNotSinkSiblings(t *testing.T) {
	// The -inject spec arms replica 0 only; the guard ladder recovers it
	// while the other replicas run clean, so the batch as a whole passes.
	o := batchOpts(4)
	o.method = "direct"
	o.workers = 2
	o.maxInflight = 2
	o.inject = "nan-forces@5"
	o.ckptDir = t.TempDir()
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

func TestBatchTimeoutSurfacesError(t *testing.T) {
	// A deadline far below one step's wall time fails every replica; the
	// batch must report that, not hang or claim success.
	o := batchOpts(2)
	o.replicaTimeout = time.Nanosecond
	err := run(o)
	if err == nil {
		t.Fatal("all-failed batch returned nil")
	}
	if !strings.Contains(err.Error(), "no replica finished") {
		t.Fatalf("error %v, want batch failure summary", err)
	}
}

func TestBatchRejectsModeledDevices(t *testing.T) {
	o := batchOpts(2)
	o.devName = "gpu"
	if err := run(o); err == nil {
		t.Fatal("-batch accepted a modeled device")
	}
}

func TestValidateOpts(t *testing.T) {
	good := opts("reference")
	good.ckptEvery = 100
	good.maxRetries = 3
	if err := validateOpts(good); err != nil {
		t.Fatalf("valid opts rejected: %v", err)
	}

	cases := []struct {
		name string
		mut  func(*runOpts)
		want string
	}{
		{"zero steps", func(o *runOpts) { o.steps = 0 }, "-steps"},
		{"negative steps", func(o *runOpts) { o.steps = -3 }, "-steps"},
		{"negative workers", func(o *runOpts) { o.workers = -1 }, "-workers"},
		{"zero skin", func(o *runOpts) { o.skin = 0 }, "-skin"},
		{"negative skin", func(o *runOpts) { o.skin = -0.4 }, "-skin"},
		{"zero checkpoint interval", func(o *runOpts) { o.ckptEvery = 0 }, "-checkpoint-every"},
		{"zero dump interval", func(o *runOpts) { o.dumpEvery = 0 }, "-dump-every"},
		{"negative dump interval", func(o *runOpts) { o.dumpEvery = -1 }, "-dump-every"},
		{"zero retries", func(o *runOpts) { o.maxRetries = 0 }, "-max-retries"},
		{"negative retries", func(o *runOpts) { o.maxRetries = -2 }, "-max-retries"},
		{"negative batch", func(o *runOpts) { o.batch = -1 }, "-batch"},
		{"negative inflight", func(o *runOpts) { o.maxInflight = -2 }, "-max-inflight"},
		{"negative queue", func(o *runOpts) { o.queueDepth = -1 }, "-queue-depth"},
		{"negative timeout", func(o *runOpts) { o.replicaTimeout = -time.Second }, "-replica-timeout"},
		{"unknown inject kind", func(o *runOpts) { o.inject = "cosmic-ray@3" }, "cosmic-ray"},
		{"malformed inject spec", func(o *runOpts) { o.inject = "nan-forces" }, "kind@N"},
		{"bad inject call number", func(o *runOpts) { o.inject = "nan-forces@zero" }, "positive integer"},
		{"unknown method", func(o *runOpts) { o.method = "bogus" }, "bogus"},
		{"retired cellgrid method", func(o *runOpts) { o.method = "cellgrid" }, "cellgrid"},
		{"retired par method", func(o *runOpts) { o.method = "pardirect" }, "pardirect"},
		{"unknown thermostat", func(o *runOpts) { o.thermostat = "maxwell-daemon" }, "maxwell-daemon"},
		{"modeled device, bad method", func(o *runOpts) { o.devName = "opteron"; o.method = "bogus" }, "bogus"},
		{"modeled device, bad thermostat", func(o *runOpts) { o.devName = "cell"; o.thermostat = "nose" }, "nose"},
		{"guard ignores -load-checkpoint", func(o *runOpts) { o.guard = true; o.loadCkpt = "r.mdcp" }, "-load-checkpoint"},
		{"guard ignores -save-checkpoint", func(o *runOpts) { o.guard = true; o.saveCkpt = "r.mdcp" }, "-save-checkpoint"},
		{"batch ignores -save-checkpoint", func(o *runOpts) { o.batch = 2; o.saveCkpt = "s.mdcp" }, "-save-checkpoint"},
		{"batch ignores -load-checkpoint", func(o *runOpts) { o.batch = 2; o.loadCkpt = "s.mdcp" }, "-load-checkpoint"},
		{"batch ignores -dump", func(o *runOpts) { o.batch = 2; o.dump = "b.xyz" }, "-dump"},
		{"modeled device ignores -save-checkpoint", func(o *runOpts) { o.devName = "opteron"; o.saveCkpt = "t.mdcp" }, "-save-checkpoint"},
		{"modeled device ignores -load-checkpoint", func(o *runOpts) { o.devName = "gpu"; o.loadCkpt = "t.mdcp" }, "-load-checkpoint"},
		{"modeled device ignores -dump", func(o *runOpts) { o.devName = "opteron"; o.dump = "t.xyz" }, "-dump"},
		{"plain run ignores -checkpoint-dir", func(o *runOpts) { o.ckptDir = "ck" }, "-checkpoint-dir"},
	}
	for name, mut := range map[string]func(*runOpts){
		"plain run restart files":  func(o *runOpts) { o.loadCkpt, o.saveCkpt, o.dump = "r.mdcp", "s.mdcp", "t.xyz" },
		"guard trajectory and dir": func(o *runOpts) { o.guard, o.dump, o.ckptDir = true, "t.xyz", "ck" },
		"batch dir":                func(o *runOpts) { o.batch, o.ckptDir = 2, "ck" },
	} {
		o := good
		mut(&o)
		if err := validateOpts(o); err != nil {
			t.Errorf("%s: rejected: %v", name, err)
		}
	}
	for _, tc := range cases {
		o := good
		tc.mut(&o)
		err := validateOpts(o)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}
