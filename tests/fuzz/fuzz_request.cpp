/**
 * @file
 * Fuzz target: the geyserd wire-request parser. Request frames arrive
 * from any client that can open the daemon's socket, so arbitrary bytes
 * exercise three contracts:
 *   1. parseRequest rejects malformed input only with a taxonomy error
 *      (geyser::Error); any other exception escaping is a finding;
 *   2. an accepted request, re-encoded by encodeRequest, parses back and
 *      re-encodes to the same bytes;
 *   3. the payload of an accepted `batch` request either fails
 *      fleet::parseFleetPayload with a taxonomy error or yields members
 *      whose circuits pass validate().
 */
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "fleet/fleet.hpp"
#include "service/protocol.hpp"

extern "C" int
LLVMFuzzerTestOneInput(const uint8_t *data, size_t size)
{
    using namespace geyser;
    const std::string bytes(reinterpret_cast<const char *>(data), size);

    service::Request request;
    try {
        request = service::parseRequest(bytes);
    } catch (const Error &) {
        return 0;  // Contract 1: structured rejection.
    }

    // Contract 2: the canonical encoding is a fixed point of the codec.
    const std::string encoded = service::encodeRequest(request);
    if (service::encodeRequest(service::parseRequest(encoded)) != encoded)
        __builtin_trap();

    // Contract 3: a batch the daemon would accept holds valid circuits.
    if (request.verb != service::Verb::Batch)
        return 0;
    std::vector<fleet::FleetJob> jobs;
    try {
        jobs = fleet::parseFleetPayload(request.qasm);
    } catch (const Error &) {
        return 0;
    }
    for (const auto &job : jobs)
        job.logical.validate();
    return 0;
}
