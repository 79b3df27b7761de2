/**
 * @file
 * Flits for suites that drive a router, channel or collector directly:
 * built through a PacketTable, as the network builds them, so a test
 * flit always indexes a live packet.  Packets are numbered 1, 2, ...
 * in creation order, the order the table requires.
 */

#pragma once

#include <cstdint>

#include "router/flit.hpp"

namespace dvsnet::testutil
{

class TestPackets
{
  public:
    router::PacketTable table;

    /** The single flit of a new one-flit packet, on VC 0. */
    router::Flit
    single()
    {
        router::PacketDesc desc;
        desc.id = nextId_++;
        desc.src = 0;
        desc.dst = 1;
        desc.length = 1;
        return table.makeFlit(table.add(desc), 0);
    }

    /** Id of the packet `flit` belongs to. */
    router::PacketId
    idOf(const router::Flit &flit) const
    {
        return table.at(flit.slot).id;
    }

  private:
    router::PacketId nextId_ = 1;
};

} // namespace dvsnet::testutil
