package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"time"

	"bloc/internal/csi"
	"bloc/internal/fingerprint"
	"bloc/internal/geom"
	"bloc/internal/testbed"
	"bloc/internal/wire"
)

// The deployment every workload runs against: bloc-server's defaults
// (seed 1, the paper's four wall-centred anchors with four antennas each,
// all 37 data channels).
const (
	deploySeed = 1
	anchors    = 4
	antennas   = 4
)

// Workload shape. Load scales only with tag count and rate; the four
// connections are the deployment's four anchors.
const (
	fleetTags   = 32                     // tracked/degraded: tags in the fleet
	tagPeriod   = 500 * time.Millisecond // tracked/degraded: one round per tag per period
	walkSpeed   = 0.3                    // tracked/degraded: random-waypoint speed, m/s
	warmPeriods = 4                      // tracked/degraded: rounds per tag before the window opens
	acquireRate = 30                     // acquire: new tags per second
	acquireWarm = time.Second            // acquire: traffic before the window opens
	firstTag    = 1000                   // workload tag IDs start here
	nSetups     = 5                      // server set-ups per run; setup_s is their median
)

var workloads = []string{"tracked", "acquire", "degraded"}

// roundKey is a round's request identifier: one tag's acquisition round.
type roundKey struct {
	tag   uint16
	round uint32
}

// round is one offered acquisition round, pre-encoded for the wire.
type round struct {
	key    roundKey
	due    time.Duration // offset from the start of play
	pos    geom.Point    // ground truth
	window bool          // counted in the measured window
	frames [anchors][]byte
}

// traffic is one run's inputs: the workload rounds in due order followed
// by one warm-up round per server set-up (tags 1..nSetups, outside the
// workload so they are never tombstoned duplicates).
type traffic struct {
	workload string
	rounds   []round
	nWork    int // rounds[:nWork] are the workload, rounds[nWork:] the warm-ups
	index    map[roundKey]int
	room     geom.Rect
	bands    int // rows per anchor per round
}

func (tr *traffic) warm(i int) int { return tr.nWork + i }

// windowRounds lists the indexes of the measured rounds.
func (tr *traffic) windowRounds() []int {
	var out []int
	for i := 0; i < tr.nWork; i++ {
		if tr.rounds[i].window {
			out = append(out, i)
		}
	}
	return out
}

func (tr *traffic) bytesPerRound() int {
	n := 0
	for _, f := range tr.rounds[0].frames {
		n += len(f)
	}
	return n
}

// newDeployment builds the deployment exactly as bloc-server does.
func newDeployment() (*testbed.Deployment, error) {
	cfg := testbed.PaperConfig(deploySeed)
	cfg.Anchors, cfg.Antennas = anchors, antennas
	return testbed.New(testbed.PaperEnvironment(deploySeed), cfg)
}

// survey builds the site-survey fingerprint DB the way bloc-dataset
// survey does, on the server's deployment seed.
func survey(dep *testbed.Deployment) (*fingerprint.DB, error) {
	return fingerprint.Survey(dep.Env.Room, anchors,
		func(point, rep int, p geom.Point) *csi.Snapshot {
			return dep.Fork(0x5E0<<16 | uint64(point)<<4 | uint64(rep)).Sounding(p)
		}, fingerprint.SurveyOptions{})
}

// buildTraffic generates a workload's rounds from the seed: positions,
// paths and schedule, then every round's soundings encoded as the frames
// each anchor writes.
func buildTraffic(dep *testbed.Deployment, workload string, seed uint64, seconds int) (*traffic, error) {
	rng := rand.New(rand.NewPCG(seed, 0xB10C))
	room := dep.Env.Room
	span := time.Duration(seconds) * time.Second
	tr := &traffic{workload: workload, room: room, bands: len(dep.Bands)}
	var nanAnchor func(a int) bool
	switch workload {
	case "tracked", "degraded":
		tr.rounds = walkRounds(newDeck(rng, room.Inset(0.5)), span)
		if workload == "degraded" {
			nanAnchor = func(a int) bool { return a == 2 || a == 3 }
		}
	case "acquire":
		tr.rounds = acquireRounds(newDeck(rng, room.Inset(0.25)), span)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
	}
	tr.nWork = len(tr.rounds)
	for i := 0; i < nSetups; i++ {
		tr.rounds = append(tr.rounds, round{key: roundKey{tag: uint16(1 + i)}, pos: room.Center()})
	}
	tr.index = make(map[roundKey]int, len(tr.rounds))
	for i, r := range tr.rounds {
		tr.index[r.key] = i
	}
	encodeAll(dep, tr.rounds, tr.nWork, nanAnchor)
	return tr, nil
}

// deck deals positions spread evenly over an area: the cells of a grid
// of about deckCell metres come out in a seeded random order, reshuffled
// once all are dealt, each with a uniform jitter inside the cell. Every
// position is uniform over the area, and every seed covers it alike, so
// accuracy and cost do not swing with where one seed's draws clustered.
type deck struct {
	rng    *rand.Rand
	area   geom.Rect
	nx, ny int
	order  []int
}

const deckCell = 0.5

func newDeck(rng *rand.Rand, area geom.Rect) *deck {
	return &deck{
		rng:  rng,
		area: area,
		nx:   max(1, int(area.Width()/deckCell)),
		ny:   max(1, int(area.Height()/deckCell)),
	}
}

func (d *deck) draw() geom.Point {
	if len(d.order) == 0 {
		d.order = d.rng.Perm(d.nx * d.ny)
	}
	c := d.order[0]
	d.order = d.order[1:]
	w, h := d.area.Width()/float64(d.nx), d.area.Height()/float64(d.ny)
	return geom.Pt(d.area.Min.X+(float64(c%d.nx)+d.rng.Float64())*w,
		d.area.Min.Y+(float64(c/d.nx)+d.rng.Float64())*h)
}

// walkRounds is the tracked schedule: fleetTags tags, each sending a round
// every tagPeriod with starts staggered evenly across the period, each
// walking a random-waypoint path at walkSpeed between waypoints dealt by
// the deck. The window opens after warmPeriods rounds per tag.
func walkRounds(waypoints *deck, span time.Duration) []round {
	pos := make([]geom.Point, fleetTags)
	goal := make([]geom.Point, fleetTags)
	for k := range pos {
		pos[k], goal[k] = waypoints.draw(), waypoints.draw()
	}
	step := walkSpeed * tagPeriod.Seconds()
	open := warmPeriods * tagPeriod
	var out []round
	for t := 0; ; t++ {
		base := time.Duration(t) * tagPeriod
		if base >= open+span {
			return out
		}
		for k := 0; k < fleetTags; k++ {
			due := base + time.Duration(k)*tagPeriod/fleetTags
			if due >= open+span {
				break
			}
			out = append(out, round{
				key:    roundKey{tag: uint16(firstTag + k), round: uint32(t)},
				due:    due,
				pos:    pos[k],
				window: due >= open,
			})
			// Advance along the path; a reached waypoint draws the next.
			dx, dy := goal[k].X-pos[k].X, goal[k].Y-pos[k].Y
			if d := math.Hypot(dx, dy); d <= step {
				pos[k], goal[k] = goal[k], waypoints.draw()
			} else {
				pos[k] = geom.Pt(pos[k].X+dx/d*step, pos[k].Y+dy/d*step)
			}
		}
	}
}

// acquireRounds is the acquire schedule: acquireRate rounds per second,
// each from a tag ID never seen before at a position dealt by the deck.
func acquireRounds(d *deck, span time.Duration) []round {
	gap := time.Second / acquireRate
	var out []round
	for i := 0; ; i++ {
		due := time.Duration(i) * gap
		if due >= acquireWarm+span {
			return out
		}
		out = append(out, round{
			key:    roundKey{tag: uint16(firstTag + i)},
			due:    due,
			pos:    d.draw(),
			window: due >= acquireWarm,
		})
	}
}

// encodeAll sounds every round, exactly as bloc-anchor forks the shared
// deployment per (tag, round), and encodes each anchor's 37 rows into the
// single write that anchor sends. Workload rows of anchors for which nan
// reports true carry NaN tones. Two workers; the result does not depend
// on scheduling.
func encodeAll(dep *testbed.Deployment, rs []round, nWork int, nan func(a int) bool) {
	const workers = 2
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(rs); i += workers {
				r := &rs[i]
				snap := dep.Fork(uint64(r.key.tag)<<32 | uint64(r.key.round)).Sounding(r.pos)
				for a := 0; a < anchors; a++ {
					r.frames[a] = encodeAnchor(snap, r.key, a, i < nWork && nan != nil && nan(a))
				}
			}
		}(w)
	}
	wg.Wait()
}

func encodeAnchor(snap *csi.Snapshot, k roundKey, a int, nan bool) []byte {
	var buf bytes.Buffer
	for b := range snap.Bands {
		row := wire.CSIRow{
			Round:    k.round,
			TagID:    k.tag,
			AnchorID: uint8(a),
			BandIdx:  uint16(b),
			Tag:      snap.Tag[b][a],
			Master:   snap.Master[b][a],
		}
		if nan {
			row.Tag = make([]complex128, len(row.Tag))
			for j := range row.Tag {
				row.Tag[j] = complex(math.NaN(), math.NaN())
			}
		}
		// A bytes.Buffer write cannot fail and the row is far below the
		// frame limit.
		_ = wire.WriteFrame(&buf, wire.TypeCSIRow, row.Marshal())
	}
	return buf.Bytes()
}
