package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"

	"micropnp"
	"micropnp/internal/client"
	"micropnp/internal/core"
	"micropnp/internal/thing"
)

// sensorKinds are the four evaluation peripherals every population mixes:
// two ADC drivers, one I²C and one SPI.
var sensorKinds = [4]struct {
	name string
	id   micropnp.DeviceID
}{
	{"tmp36", micropnp.TMP36},
	{"hih4030", micropnp.HIH4030},
	{"bmp180", micropnp.BMP180},
	{"adxl345", micropnp.ADXL345},
}

// env is the physical environment a run sets, drawn from the seed; every
// reading is checked against it.
type env struct {
	seed          int64
	tempC, rh, pa float64
	ax, ay, az    float64
}

func envFromSeed(seed int64) env {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	return env{
		seed:  seed,
		tempC: 15 + 15*rng.Float64(),
		rh:    30 + 40*rng.Float64(),
		pa:    98_000 + 6_000*rng.Float64(),
		ax:    rng.Float64() - 0.5,
		ay:    rng.Float64() - 0.5,
		az:    1,
	}
}

// checkValues reports whether a reading of device kind k is in range for e.
// The tolerances cover ADC quantisation and the drivers' integer maths.
func (e env) checkValues(k int, vals []int32) error {
	near := func(got int32, want, tol float64) bool { return math.Abs(float64(got)-want) <= tol }
	ok := false
	switch k {
	case 0: // TMP36: tenths °C
		ok = len(vals) == 1 && near(vals[0], 10*e.tempC, 10)
	case 1: // HIH-4030: tenths %RH
		ok = len(vals) == 1 && near(vals[0], 10*e.rh, 30)
	case 2: // BMP180: tenths °C, Pa
		ok = len(vals) == 2 && near(vals[0], 10*e.tempC, 10) && near(vals[1], e.pa, 100)
	case 3: // ADXL345: mg per axis
		ok = len(vals) == 3 && near(vals[0], 1000*e.ax, 40) && near(vals[1], 1000*e.ay, 40) && near(vals[2], 1000*e.az, 40)
	}
	if !ok {
		return fmt.Errorf("%s reading %v out of range for %.2f °C, %.1f %%RH, %.0f Pa, (%.3f, %.3f, %.3f) g",
			sensorKinds[k].name, vals, e.tempC, e.rh, e.pa, e.ax, e.ay, e.az)
	}
	return nil
}

// procJitter is the relative per-delivery latency noise of the simulated
// network. Drawn from the seeded stream, it makes each seed's virtual
// latencies distinct while keeping them exact for one seed.
const procJitter = 0.05

// target is one readable peripheral of a population.
type target struct {
	addr netip.Addr
	kind int
}

// parentOf lays out the routing tree: in every block of 20 Things, 12 sit
// one hop from the manager, 5 hang below those (two hops) and 3 below the
// second-hop ones (three hops). It returns -1 for a one-hop Thing.
func parentOf(i int) int {
	base, off := i-i%20, i%20
	switch {
	case off < 12:
		return -1
	case off < 17:
		return base + off - 12
	default:
		return base + 12 + off - 17
	}
}

// relayEvery puts a relay bank on channel 1 of every relayEvery-th Thing
// when a population carries relays.
const relayEvery = 4

// sdkPop is a population built through the public SDK.
type sdkPop struct {
	d       *micropnp.Deployment
	cl      *micropnp.Client
	targets []target
	relays  []relayTarget
	things  []*micropnp.Thing
}

type relayTarget struct {
	addr netip.Addr
	bank *micropnp.RelayBank
}

// buildSDK stands up n Things carrying the four sensor kinds round-robin
// (plus relay banks when withRelays), lets every plug-in sequence finish —
// identification, driver request, OTA install, advertisement — and returns
// once the network is idle. prep, when set, runs before the first plug-in,
// so it can hook the client's advert flow.
func buildSDK(n int, e env, withRelays bool, prep func(*micropnp.Deployment, *micropnp.Client) error) (*sdkPop, error) {
	d, err := micropnp.NewDeployment(micropnp.WithSeed(e.seed), micropnp.WithProcJitter(procJitter))
	if err != nil {
		return nil, err
	}
	d.SetEnvironment(e.tempC, e.rh, e.pa)
	d.SetAcceleration(e.ax, e.ay, e.az)
	cl, err := d.AddClient()
	if err != nil {
		return nil, err
	}
	if prep != nil {
		if err := prep(d, cl); err != nil {
			return nil, err
		}
	}
	p := &sdkPop{d: d, cl: cl}
	for i := 0; i < n; i++ {
		k := i % len(sensorKinds)
		opts := []micropnp.ThingOption{micropnp.WithPeripherals(sensorKinds[k].id)}
		if par := parentOf(i); par >= 0 {
			opts = append(opts, micropnp.Under(p.things[par]))
		}
		th, err := d.AddThing(fmt.Sprintf("t%d", i), opts...)
		if err != nil {
			return nil, err
		}
		p.things = append(p.things, th)
		p.targets = append(p.targets, target{addr: th.Addr(), kind: k})
		if withRelays && i%relayEvery == relayEvery-1 {
			bank, err := th.PlugRelay(1)
			if err != nil {
				return nil, err
			}
			p.relays = append(p.relays, relayTarget{addr: th.Addr(), bank: bank})
		}
	}
	d.Run()
	return p, nil
}

// corePop is the same population built straight on internal/core, for the
// traced run's comparison of the public SDK against the layers below it.
type corePop struct {
	d       *core.Deployment
	cl      *client.Client
	targets []target
	things  []*thing.Thing
}

func buildCore(n int, e env) (*corePop, error) {
	d, err := core.NewDeployment(core.DeploymentConfig{Seed: e.seed, ProcJitter: procJitter})
	if err != nil {
		return nil, err
	}
	d.Env.Set(e.tempC, e.rh, e.pa)
	d.Env.SetAcceleration(e.ax, e.ay, e.az)
	cl, err := d.AddClient()
	if err != nil {
		return nil, err
	}
	p := &corePop{d: d, cl: cl}
	plug := [4]func(*thing.Thing, int) error{d.PlugTMP36, d.PlugHIH4030, d.PlugBMP180, d.PlugADXL345}
	for i := 0; i < n; i++ {
		parent := d.Manager.Node()
		if par := parentOf(i); par >= 0 {
			parent = p.things[par].Node()
		}
		th, err := d.AddThingAt(fmt.Sprintf("t%d", i), parent)
		if err != nil {
			return nil, err
		}
		k := i % len(sensorKinds)
		if err := plug[k](th, 0); err != nil {
			return nil, err
		}
		p.things = append(p.things, th)
		p.targets = append(p.targets, target{addr: th.Addr(), kind: k})
	}
	d.Run()
	return p, nil
}

// order is a seeded sequence of target indices that a closed loop cycles
// through; drawing it up front keeps the generator allocation-free.
func order(seed int64, targets, length int) []int32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int32, length)
	for i := range out {
		out[i] = int32(rng.Intn(targets))
	}
	return out
}
