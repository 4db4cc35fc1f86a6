package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"

	"jvmpower/internal/experiments"
	"jvmpower/internal/gc"
	"jvmpower/internal/platform"
	"jvmpower/internal/vm"
	"jvmpower/internal/workloads"
)

// Input generation. Every input is a function of --seed and the stream's
// name alone; the program receives only the generated Points and
// CampaignSpecs.

// newRand returns the seeded source for one named input stream.
func newRand(seed uint64, stream string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return rand.New(rand.NewSource(int64(seed ^ h.Sum64())))
}

// simSeed is the simulation seed every generated input runs at: the CLI
// default, so outputs are the ones users get and references recur across
// runs with different benchmark seeds.
const simSeed = 1

// sweepGen deals whole Jikes heap sweeps (one benchmark under one
// collector at every heap the runner's scale uses) in rounds. Every round
// runs each benchmark once, in a seeded order. Collectors are dealt by a
// fixed cyclic Latin square within strata of benchmarks of similar
// live-set size: in round r the j-th benchmark of a stratum runs
// collector (r+j) mod 4. So every round uses each collector once per
// stratum, and over each cycle of four rounds every benchmark meets every
// collector once, which is the whole Jikes matrix.
//
// The pairing is fixed, and the seed decides only the order, because a
// paper-sweep run covers two rounds, half of the matrix, and its resident
// set peaks in the heaviest MarkSweep sweep it contains. MarkSweep sweeps
// of different benchmarks peak between 36 and 447 MB on their own, so
// when the seed drew the pairing, the ten-run quartile spread of
// peak_rss_mb was 0.19 of the median.
type sweepGen struct {
	rnd     *rand.Rand
	heaps   func(suite string) []int
	strata  [][]*workloads.Benchmark
	round   int
	pending [][]experiments.Point
}

// minRounds is the fewest rounds an untraced sweep run measures. A
// paper-scale round takes 25-28 s on a 2-core Xeon VM, close to a 30 s
// run; without the floor a slower host would stop some runs after one
// round and change their mix.
const minRounds = 2

func newSweepGen(seed uint64, quick bool) *sweepGen {
	r := experiments.NewRunner(nil)
	r.Quick = quick
	g := &sweepGen{rnd: newRand(seed, "sweeps"), heaps: r.JikesHeapsMB}
	benches := workloads.All()
	sort.SliceStable(benches, func(i, j int) bool { return benches[i].Profile.LiveTarget > benches[j].Profile.LiveTarget })
	n := len(gc.PlanNames())
	for i := 0; i < len(benches); i += n {
		g.strata = append(g.strata, benches[i:min(i+n, len(benches))])
	}
	return g
}

// next returns the points of the next sweep.
func (g *sweepGen) next() []experiments.Point {
	if len(g.pending) == 0 {
		g.deal()
	}
	s := g.pending[0]
	g.pending = g.pending[1:]
	return s
}

// atRoundStart reports whether the next sweep begins a new round.
func (g *sweepGen) atRoundStart() bool { return len(g.pending) == 0 }

func (g *sweepGen) deal() {
	plans := gc.PlanNames()
	r := g.round
	g.round++
	p6 := platform.P6()
	var round [][]experiments.Point
	for _, stratum := range g.strata {
		for j, b := range stratum {
			col := plans[(r+j)%len(plans)]
			var pts []experiments.Point
			for _, h := range g.heaps(b.Suite) {
				pts = append(pts, experiments.Point{Bench: b, Flavor: vm.Jikes, Collector: col, HeapMB: h, Platform: p6})
			}
			round = append(round, pts)
		}
	}
	g.rnd.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
	g.pending = round
}

// campaignFigures are the figure subsets campaigns draw from: every figure
// whose cells come from Runner points, alone and in the groups that share
// a point matrix.
var campaignFigures = [][]string{
	{"fig6"}, {"fig7"}, {"fig8"}, {"mem"}, {"fig9"}, {"fig10"}, {"fig11"},
	{"fig6", "fig7"}, {"fig8", "mem"}, {"fig9", "fig10", "fig11"},
}

// campaignSeeds is the small pool of simulation seeds campaigns run at.
// With quick figures over two seeds, most of a run's points are served by
// shared flights or the disk cache and a minority are computed.
var campaignSeeds = []uint64{1, 2}

// campaignGen is one client's seeded sequence of quick campaigns.
type campaignGen struct {
	rnd    *rand.Rand
	client string
}

func newCampaignGen(seed uint64, client int) *campaignGen {
	name := fmt.Sprintf("client-%d", client)
	return &campaignGen{rnd: newRand(seed, "campaigns/"+name), client: name}
}

func (g *campaignGen) next() experiments.CampaignSpec {
	return experiments.CampaignSpec{
		Figures: campaignFigures[g.rnd.Intn(len(campaignFigures))],
		Seed:    campaignSeeds[g.rnd.Intn(len(campaignSeeds))],
		Quick:   true,
		Client:  g.client,
	}
}

// campaignKey names a campaign's reference render in the digest store.
func campaignKey(spec experiments.CampaignSpec) string {
	return fmt.Sprintf("campaign|seed=%d|quick=%t|%s", spec.Seed, spec.Quick, strings.Join(spec.Figures, ","))
}

// pointKey names a point's reference result in the digest store.
func pointKey(p experiments.Point, quick bool, seed uint64) string {
	return fmt.Sprintf("point|seed=%d|quick=%t|%s", seed, quick, pointID(p.Bench.Name, p.Flavor.String(), p.Collector, p.HeapMB, p.Platform.Name, p.S10))
}

// pointID identifies a point by the fields every transport reports.
func pointID(bench, flavor, collector string, heapMB int, plat string, s10 bool) string {
	return fmt.Sprintf("%s/%s/%s/%dMB/%s/s10=%t", bench, flavor, collector, heapMB, plat, s10)
}

// simBytecodes is the simulated bytecode volume of one point.
func simBytecodes(bench string, s10, quick bool) int64 {
	b, err := workloads.ByName(bench)
	if err != nil {
		return 0
	}
	prof := b.Profile
	if s10 {
		prof = workloads.S10Profile(b)
	}
	if quick {
		prof = prof.Scale(0.25)
	}
	return prof.TotalBytecodes
}
