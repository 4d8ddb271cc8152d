package ocl

import (
	"container/list"
	"sync"

	"repro/internal/sim"
)

// DevicePool reuses devices across runs of a campaign. Building a device
// allocates the memory's page table, cache arrays and per-warp register
// files; a sweep that revisits each configuration once per (kernel, mapper)
// pays that cost on every task. The pool keeps idle devices keyed by their
// exact sim.Config and hands them back after a Reset, which is
// byte-identical in behaviour to a fresh NewDevice (see Device.Reset).
//
// The idle set is bounded globally, not per configuration: a sweep walks
// its grid configuration-major, so devices of configurations the task
// order has moved past are evicted (oldest idle first) instead of
// accumulating one pool per grid point for the whole campaign.
//
// Get/Put are safe for concurrent use by sweep workers.
type DevicePool struct {
	mu      sync.Mutex
	byCfg   map[sim.Config][]*list.Element
	lru     list.List // of *Device; front = most recently Put
	maxIdle int       // total idle devices; <= 0 means unbounded
	hits    uint64
	misses  uint64
}

// NewDevicePool builds a pool keeping at most maxIdle idle devices in
// total (a sweep needs at most its worker count; <= 0 removes the bound).
func NewDevicePool(maxIdle int) *DevicePool {
	return &DevicePool{byCfg: map[sim.Config][]*list.Element{}, maxIdle: maxIdle}
}

// Get returns a reset pooled device for cfg, or builds one.
func (p *DevicePool) Get(cfg sim.Config) (*Device, error) {
	p.mu.Lock()
	if els := p.byCfg[cfg]; len(els) > 0 {
		el := els[len(els)-1]
		p.byCfg[cfg] = els[:len(els)-1]
		p.lru.Remove(el)
		p.hits++
		p.mu.Unlock()
		d := el.Value.(*Device)
		d.Reset()
		return d, nil
	}
	p.misses++
	p.mu.Unlock()
	return NewDevice(cfg)
}

// Put returns a device to the pool, evicting the oldest idle device when
// the global bound is exceeded. The device may be in any state (a trapped
// simulation included): it is reset on its next Get.
func (p *DevicePool) Put(d *Device) {
	if d == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.byCfg[d.cfg] = append(p.byCfg[d.cfg], p.lru.PushFront(d))
	for p.maxIdle > 0 && p.lru.Len() > p.maxIdle {
		oldest := p.lru.Back()
		p.lru.Remove(oldest)
		victim := oldest.Value.(*Device)
		els := p.byCfg[victim.cfg]
		for i, el := range els {
			if el == oldest {
				p.byCfg[victim.cfg] = append(els[:i], els[i+1:]...)
				break
			}
		}
		if len(p.byCfg[victim.cfg]) == 0 {
			delete(p.byCfg, victim.cfg)
		}
	}
}

// Stats returns the pool's reuse counters: Hits counts runs served by a
// recycled device, Misses counts fresh constructions.
func (p *DevicePool) Stats() CacheCounters {
	p.mu.Lock()
	defer p.mu.Unlock()
	return CacheCounters{Hits: p.hits, Misses: p.misses}
}

// IdleLen returns the number of idle devices currently retained.
func (p *DevicePool) IdleLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lru.Len()
}
