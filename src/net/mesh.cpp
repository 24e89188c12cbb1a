#include "net/mesh.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace aecdsm::net {

MeshNetwork::MeshNetwork(sim::Engine& engine, const SystemParams& params)
    : engine_(engine), params_(params) {
  const std::string err = params.validate();
  AECDSM_CHECK_MSG(err.empty(), err);
  // Four directed links per node (N/E/S/W); edge links exist but stay idle.
  link_busy_.assign(static_cast<std::size_t>(params.num_procs) * 4, 0);
  nic_busy_.assign(static_cast<std::size_t>(params.num_procs), 0);
}

MeshNetwork::Coord MeshNetwork::coord_of(ProcId p) const {
  return Coord{p % params_.mesh_width, p / params_.mesh_width};
}

ProcId MeshNetwork::node_at(Coord c) const {
  return c.y * params_.mesh_width + c.x;
}

std::size_t MeshNetwork::link_index(ProcId from, ProcId to) const {
  const Coord a = coord_of(from);
  const Coord b = coord_of(to);
  int dir;
  if (b.x == a.x + 1 && b.y == a.y) dir = 0;       // east
  else if (b.x == a.x - 1 && b.y == a.y) dir = 1;  // west
  else if (b.y == a.y + 1 && b.x == a.x) dir = 2;  // south
  else if (b.y == a.y - 1 && b.x == a.x) dir = 3;  // north
  else {
    AECDSM_CHECK_MSG(false, "non-adjacent link " << from << "->" << to);
  }
  return static_cast<std::size_t>(from) * 4 + static_cast<std::size_t>(dir);
}

std::vector<ProcId> MeshNetwork::route(ProcId src, ProcId dst) const {
  std::vector<ProcId> path{src};
  Coord c = coord_of(src);
  const Coord d = coord_of(dst);
  while (c.x != d.x) {  // X first, then Y (deadlock-free dimension order)
    c.x += (d.x > c.x) ? 1 : -1;
    path.push_back(node_at(c));
  }
  while (c.y != d.y) {
    c.y += (d.y > c.y) ? 1 : -1;
    path.push_back(node_at(c));
  }
  return path;
}

int MeshNetwork::hop_count(ProcId src, ProcId dst) const {
  const Coord a = coord_of(src);
  const Coord b = coord_of(dst);
  return std::abs(a.x - b.x) + std::abs(a.y - b.y);
}

Cycles MeshNetwork::uncontended_latency(ProcId src, ProcId dst, std::size_t bytes) const {
  if (src == dst) return 0;
  const std::size_t words = (bytes + kWordBytes - 1) / kWordBytes;
  const Cycles inject = params_.io_transfer_cycles(words);
  const Cycles eject = params_.io_transfer_cycles(words);
  const Cycles per_hop = params_.switch_cycles + params_.wire_cycles;
  const Cycles payload = params_.network_payload_cycles(bytes);
  return inject + static_cast<Cycles>(hop_count(src, dst)) * per_hop + payload + eject;
}

Cycles MeshNetwork::route_and_occupy(ProcId src, ProcId dst, std::size_t bytes,
                                     Cycles t0) {
  const std::size_t words = (bytes + kWordBytes - 1) / kWordBytes;
  const Cycles payload = params_.network_payload_cycles(bytes);

  // Source NIC injection over the I/O bus; back-to-back sends serialize.
  Cycles t = std::max(t0, nic_busy_[static_cast<std::size_t>(src)]);
  t += params_.io_transfer_cycles(words);
  nic_busy_[static_cast<std::size_t>(src)] = t;

  // Wormhole traversal: the header reserves each link in turn; the tail
  // occupies each link for the payload's serialization time.
  const std::vector<ProcId> path = route(src, dst);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const std::size_t link = link_index(path[i], path[i + 1]);
    t = std::max(t, link_busy_[link]) + params_.switch_cycles + params_.wire_cycles;
    link_busy_[link] = t + payload;
  }
  t += payload;

  // Destination ejection over the I/O bus into memory.
  t += params_.io_transfer_cycles(words);
  return t;
}

void MeshNetwork::send(ProcId src, ProcId dst, std::size_t bytes,
                       sim::Engine::EventFn deliver) {
  AECDSM_CHECK(src >= 0 && src < params_.num_procs);
  AECDSM_CHECK(dst >= 0 && dst < params_.num_procs);

  stats_.messages += 1;
  stats_.bytes += bytes;

  const Cycles now = engine_.now();
  if (src == dst) {
    engine_.schedule(now, std::move(deliver));
    return;
  }
  engine_.schedule(route_and_occupy(src, dst, bytes, now), std::move(deliver));
}

}  // namespace aecdsm::net
