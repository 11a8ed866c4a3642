/**
 * @file
 * The PPU kernels measured by the BM_Interpreter* microbenches.
 *
 * Each kernel is shaped like the manual kernels the workloads install
 * (randacc.cpp, hashjoin.cpp, g500_list.cpp): loop-heavy address
 * generation built from the common traversal idioms — address bump
 * feeding a line load, mask+shift hashing, pointer arithmetic feeding
 * a prefetch, and counter+branch loop control.
 */

#ifndef EPF_BENCH_INTERP_KERNELS_HPP
#define EPF_BENCH_INTERP_KERNELS_HPP

#include <cstdint>

#include "isa/builder.hpp"
#include "isa/interpreter.hpp"
#include "isa/isa.hpp"

namespace epf
{
namespace bench
{

/**
 * Pointer-chase kernel: walk the observed line as an array of links,
 * hash each link into a table slot and prefetch it — the RandAcc /
 * HJ-8 shape.  8 iterations x 7 instructions + 3 of setup.
 */
inline Kernel
pointerChaseKernel()
{
    KernelBuilder b("bench_pointer_chase");
    auto loop = b.newLabel();
    b.vaddr(1);            // r1 = table base proxy
    b.li(3, 0);            // r3 = byte offset into the line
    b.li(4, 64);           // r4 = line size (8 links)
    b.bind(loop);
    b.addi(3, 3, 8);       // bump the link cursor...
    b.ldLine(2, 3, -8);    // ...and load the link it passed
    b.andi(2, 2, 0x1FF);   // hash the link into a slot
    b.shli(2, 2, 6);
    b.add(2, 2, 1);        // rebase and prefetch the slot
    b.prefetch(2);
    b.bne(3, 4, loop);
    b.halt();
    return b.build();
}

/**
 * Hash-probe kernel: two rounds of mask/shift/xor mixing per probe,
 * tagged prefetch of the bucket header — the HJ-2 shape.  6 probes.
 */
inline Kernel
hashProbeKernel()
{
    KernelBuilder b("bench_hash_probe");
    auto loop = b.newLabel();
    b.vaddr(1);
    b.li(5, 0);            // probe counter
    b.li(6, 6);            // probes
    b.bind(loop);
    b.addi(1, 1, 40);      // next key address (struct stride)
    b.andi(2, 1, 0xFFFF);  // first mixing round
    b.shli(2, 2, 3);
    b.shri(3, 1, 7);
    b.xorr(2, 2, 3);
    b.andi(2, 2, 0x3FFF);  // second mixing round
    b.shli(2, 2, 6);
    b.add(2, 2, 1);        // bucket address, tagged fetch
    b.prefetchTag(2, 1);
    b.addi(5, 5, 1);       // loop control
    b.bne(5, 6, loop);
    b.halt();
    return b.build();
}

/**
 * Callback-chain kernel: compute the next links of a chained structure
 * from line data and prefetch each with a callback kernel id — the
 * G500-List / linked-list shape.  8 links (the whole line) per event.
 */
inline Kernel
callbackChainKernel()
{
    KernelBuilder b("bench_callback_chain");
    auto loop = b.newLabel();
    b.vaddr(5);
    b.li(3, 0);            // link cursor (bytes)
    b.li(4, 64);           // 8 links
    b.bind(loop);
    b.addi(3, 3, 8);       // advance and load the link word
    b.ldLine(1, 3, -8);
    b.andi(1, 1, 0xFFF);   // wrap into the node pool
    b.shli(1, 1, 4);
    b.add(1, 1, 5);        // rebase, chase via callback
    b.prefetchCb(1, 2);
    b.bne(3, 4, loop);
    b.halt();
    return b.build();
}

/** The event context the benches run against (line data present). */
inline EventContext
benchContext(const std::uint64_t *globals, const LineData &line)
{
    EventContext ctx;
    ctx.vaddr = 0x7F8040;
    ctx.hasLine = true;
    ctx.line = line;
    ctx.globalRegs = globals;
    return ctx;
}

/**
 * The complete shared bench input: one deterministic line payload and
 * global-register file, shared by every BM_Interpreter* bench so
 * they all measure the same inputs.  Use in place — the context
 * points into the member arrays.
 */
struct BenchInput
{
    std::uint64_t globals[kGlobalRegs] = {0x40000};
    LineData line{};
    EventContext ctx;

    BenchInput()
    {
        for (unsigned i = 0; i < kLineBytes; ++i)
            line[i] = static_cast<std::byte>(i * 37 + 11);
        ctx = benchContext(globals, line);
    }
    BenchInput(const BenchInput &) = delete;
    BenchInput &operator=(const BenchInput &) = delete;
};

} // namespace bench
} // namespace epf

#endif // EPF_BENCH_INTERP_KERNELS_HPP
