/**
 * @file
 * Pluggable link power backends.
 *
 * The paper derives network power purely from each channel's (V, f)
 * operating point (Section 4.2); Joseph et al.'s link-energy model
 * (PAPERS.md) shows link energy is also strongly *data-dependent*
 * (bit-toggle and coupling activity).  This seam lets every experiment
 * choose how link power is computed without touching the channel or the
 * ledger:
 *
 *  - `LinkPowerModel` — the interface.  A backend always provides the
 *    piecewise-constant per-link operating power; it may additionally
 *    charge a per-flit energy pulse derived from the flit's payload
 *    word.
 *  - `TableLinkPowerModel` — the paper's fitted P(V, f) = a*V^2*f + b
 *    law, bit-identical to the pre-seam inline computation.
 *  - `ToggleLinkPowerModel` — data-dependent backend: the dynamic share
 *    of the fitted law is replaced by per-flit toggle/coupling energy
 *    (E = (toggles*Cw + couplings*Cc) * V^2 per channel traversal) on
 *    top of a level-dependent static floor.
 *
 * Backends are selected by spec string, `<name>[:key=val,...]`
 * (`table`, `toggle:idle=0.5,width=32`), through linkPowerRegistry() —
 * the grammar, value rules and rejection messages of common/spec.hpp.
 * The spec travels in NetworkConfig, so every entry point (benches via
 * `--link-power`, ExperimentSpec, exp::runPoint) drives any backend.
 *
 * Determinism contract: synthetic traffic carries no payload bytes, so
 * per-flit activity is derived from `flitPayloadWord` — a splitmix64
 * hash of the flit's identity (packet id, sequence number), which the
 * simulator assigns deterministically.  Each network's router loop
 * issues channel sends serially in a fixed order (ascending router id,
 * then switch-grant order), so per-flit charges are bit-identical
 * across runs and `--threads` settings (DESIGN.md "Link power
 * backends").
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/spec.hpp"
#include "router/flit.hpp"

namespace dvsnet::power
{

/**
 * One link power backend.  Stateless and shared across every channel of
 * a network: per-channel state (the previous payload word) lives in the
 * channel, so one model instance serves any number of links.
 */
class LinkPowerModel
{
  public:
    virtual ~LinkPowerModel() = default;

    /** Registry name of this backend ("table", "toggle", ...). */
    virtual const char *name() const = 0;

    /**
     * Piecewise-constant *per-link* power (W) at an arbitrary operating
     * point; the channel multiplies by its links-per-channel gang size.
     * Called at every operating-point change, including transitional
     * states where voltage and frequency belong to different levels.
     */
    virtual double operatingPowerW(double voltage,
                                   double frequencyHz) const = 0;

    /**
     * True when the backend charges per-flit energy pulses.  Channels
     * cache this so a backend that returns false (the table model) pays
     * no virtual call on the per-flit hot path.
     */
    virtual bool chargesFlitEnergy() const { return false; }

    /**
     * Energy (J) for one flit crossing the whole channel, given its
     * payload word, the previous word the channel carried, and the
     * current supply voltage.  Only called when chargesFlitEnergy().
     */
    virtual double flitEnergyJ(std::uint64_t payload,
                               std::uint64_t prevPayload,
                               double voltage) const
    {
        (void)payload;
        (void)prevPayload;
        (void)voltage;
        return 0.0;
    }
};

/**
 * Deterministic payload word for flit `seq` of packet `packet`:
 * synthetic traffic carries no data bytes, so activity is derived from
 * a splitmix64 hash of the flit's identity.  Packet ids are assigned in
 * creation order, which is seed-deterministic, so the word — and every
 * energy pulse derived from it — is reproducible per seed.  The hash
 * takes the 64-bit id, not the flit's packet-table slot: slots are
 * reused as packets complete, so two packets in one run can share one.
 */
std::uint64_t flitPayloadWord(router::PacketId packet, std::uint16_t seq);

/**
 * What the network already knows when it builds a backend: the fitted
 * P(V, f) = a*V^2*f + b coefficients of its level table and the channel
 * gang size.  Specs only name what differs from these defaults.
 */
struct LinkPowerContext
{
    double coeffA = 0.0;  ///< fitted dynamic coefficient (W per V^2*Hz)
    double coeffB = 0.0;  ///< fitted static coefficient (W, per link)
    std::size_t linksPerChannel = 1;
};

/** The paper's fitted law — bit-identical to DvsLevelTable::powerAt. */
class TableLinkPowerModel final : public LinkPowerModel
{
  public:
    TableLinkPowerModel(double coeffA, double coeffB)
        : coeffA_(coeffA), coeffB_(coeffB)
    {}

    const char *name() const override { return "table"; }

    double
    operatingPowerW(double voltage, double frequencyHz) const override
    {
        // Exactly DvsLevelTable::powerAt's expression, same evaluation
        // order: the golden masters pin this to the bit.
        return coeffA_ * voltage * voltage * frequencyHz + coeffB_;
    }

  private:
    double coeffA_;
    double coeffB_;
};

/**
 * Data-dependent toggle/coupling backend.
 *
 * Per-link operating power keeps only the data-independent share of the
 * fitted dynamic term (clock, drivers, bias) plus the static floor:
 *
 *     P_link(V, f) = idleFraction * a * V^2 * f + b
 *
 * and each flit charges, per channel traversal,
 *
 *     E_flit = (toggles * toggleCapacitanceF
 *               + couplings * couplingCapacitanceF) * V^2
 *
 * where `toggles` is the Hamming distance between consecutive payload
 * words over the low `payloadWidth` bits and `couplings` counts
 * adjacent bit pairs toggling together (the crosstalk proxy of Joseph
 * et al.).  Defaults are calibrated so a fully utilized channel
 * carrying random data dissipates the table backend's power at every
 * level (see defaultParams), making the backends comparable and the
 * ablation meaningful.
 */
class ToggleLinkPowerModel final : public LinkPowerModel
{
  public:
    struct Params
    {
        double toggleCapacitanceF = 0.0;    ///< Cw: J/V^2 per toggled bit
        double couplingCapacitanceF = 0.0;  ///< Cc: J/V^2 per coupled pair
        double idleFraction = 0.5;  ///< data-independent dynamic share
        std::uint32_t payloadWidth = 32;  ///< payload bits per flit
    };

    /**
     * Calibrated defaults for a network whose table fit is `context`:
     * idleFraction 0.5, 32-bit payload, Cc = Cw/2, and Cw chosen so
     * one flit per link period of random data (width/2 toggles,
     * ~width/4 couplings) recovers the (1 - idleFraction) share of the
     * fitted per-channel dynamic power a*V^2*f*linksPerChannel.
     */
    static Params defaultParams(const LinkPowerContext &context);

    ToggleLinkPowerModel(const Params &params, double coeffA,
                         double coeffB);

    const char *name() const override { return "toggle"; }

    double
    operatingPowerW(double voltage, double frequencyHz) const override
    {
        return params_.idleFraction * coeffA_ * voltage * voltage *
                   frequencyHz +
               coeffB_;
    }

    bool chargesFlitEnergy() const override { return true; }

    double flitEnergyJ(std::uint64_t payload, std::uint64_t prevPayload,
                       double voltage) const override;

    const Params &params() const { return params_; }

  private:
    Params params_;
    double coeffA_;
    double coeffB_;
    std::uint64_t payloadMask_;
};

using LinkPowerRegistry =
    Registry<std::unique_ptr<LinkPowerModel>, LinkPowerContext>;

/** The process-wide link-power registry: the built-in backends. */
const LinkPowerRegistry &linkPowerRegistry();

/** Parse + validate a raw spec string; empty = valid. */
std::vector<std::string> validateLinkPowerSpec(const std::string &text);

/** Parse, validate and build in one step.  @throws ConfigError */
std::unique_ptr<LinkPowerModel>
buildLinkPowerModel(const std::string &text,
                    const LinkPowerContext &context);

} // namespace dvsnet::power
