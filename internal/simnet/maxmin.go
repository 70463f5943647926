package simnet

import (
	"fmt"
	"math"

	"repro/internal/simtime"
)

// MaxMinTransferTime computes the completion time of a set of concurrent
// flows under progressive max-min fair sharing: at every instant each
// flow receives its max-min fair rate over the links it traverses
// (water-filling), and as flows finish, the survivors speed up. This is
// the classic fluid model of TCP-like bandwidth sharing, and it is
// never faster than the bottleneck bound TransferTime computes — the
// most-loaded link still has to drain — but it can be slower, because
// fair sharing does not schedule transfers optimally.
//
// The engine's cost model uses the bottleneck bound by default
// (optimally scheduled transfers); this model is the skeptical
// alternative used to check that the reproduced shapes do not depend on
// that optimism.
func (f *Fabric) MaxMinTransferTime(flows []Flow) simtime.Duration {
	type resource struct {
		capacity float64
	}
	resources := map[string]*resource{}
	flowLinks := make([][]string, len(flows))
	remaining := make([]float64, len(flows))
	active := 0
	addLink := func(name string, capacity float64) string {
		if _, ok := resources[name]; !ok {
			resources[name] = &resource{capacity: capacity}
		}
		return name
	}
	for i, fl := range flows {
		if fl.Bytes < 0 {
			panic("simnet: negative flow size")
		}
		if fl.Src == fl.Dst || fl.Bytes == 0 {
			continue
		}
		remaining[i] = float64(fl.Bytes)
		active++
		// Capacities are the residual left by registered co-tenant
		// loads, like TransferTime's.
		links := []string{
			addLink(fmt.Sprintf("up/%d", fl.Src), f.cfg.NodeBandwidth*residual(f.bgNodeUp[fl.Src])),
			addLink(fmt.Sprintf("down/%d", fl.Dst), f.cfg.NodeBandwidth*residual(f.bgNodeDown[fl.Dst])),
		}
		sr, dr := f.Rack(fl.Src), f.Rack(fl.Dst)
		if sr != dr {
			links = append(links,
				addLink(fmt.Sprintf("rackup/%d", sr), f.cfg.RackBandwidth*residual(f.bgRackUp[sr])),
				addLink(fmt.Sprintf("rackdown/%d", dr), f.cfg.RackBandwidth*residual(f.bgRackDown[dr])),
				addLink("core", f.cfg.CoreBandwidth*residual(f.bgCore)),
			)
		}
		flowLinks[i] = links
	}
	if active == 0 {
		return 0
	}

	var now float64
	for active > 0 {
		// Water-filling: repeatedly saturate the tightest link.
		rates := make([]float64, len(flows))
		fixed := make([]bool, len(flows))
		avail := map[string]float64{}
		users := map[string]int{}
		for name, r := range resources {
			avail[name] = r.capacity
			users[name] = 0
		}
		for i := range flows {
			if remaining[i] > 0 {
				for _, l := range flowLinks[i] {
					users[l]++
				}
			}
		}
		for {
			// Tightest link: least available capacity per unfixed user.
			bottleneck, share := "", math.Inf(1)
			for name := range resources {
				if users[name] == 0 {
					continue
				}
				if s := avail[name] / float64(users[name]); s < share {
					bottleneck, share = name, s
				}
			}
			if bottleneck == "" {
				break
			}
			// Fix every unfixed flow crossing the bottleneck at the
			// fair share, releasing capacity elsewhere.
			for i := range flows {
				if fixed[i] || remaining[i] <= 0 {
					continue
				}
				crosses := false
				for _, l := range flowLinks[i] {
					if l == bottleneck {
						crosses = true
						break
					}
				}
				if !crosses {
					continue
				}
				fixed[i] = true
				rates[i] = share
				for _, l := range flowLinks[i] {
					avail[l] -= share
					users[l]--
				}
			}
		}

		// Advance to the next completion.
		dt := math.Inf(1)
		for i := range flows {
			if remaining[i] > 0 && rates[i] > 0 {
				if t := remaining[i] / rates[i]; t < dt {
					dt = t
				}
			}
		}
		if math.IsInf(dt, 1) {
			panic("simnet: starved flows in max-min computation")
		}
		now += dt
		for i := range flows {
			if remaining[i] <= 0 {
				continue
			}
			// Converted so the compiler cannot fuse multiply and subtract:
			// arm64 would, and simulated seconds would depend on the host.
			remaining[i] -= float64(rates[i] * dt)
			if remaining[i] < 1e-6 {
				remaining[i] = 0
				active--
			}
		}
	}
	return simtime.Duration(now)
}
