#include "coloring/jones_plassmann.hpp"

namespace picasso::coloring {

template ColoringResult jones_plassmann<graph::CsrGraph>(
    const graph::CsrGraph&, JpPriority, std::uint64_t);
template ColoringResult jones_plassmann<graph::DenseGraph>(
    const graph::DenseGraph&, JpPriority, std::uint64_t);

}  // namespace picasso::coloring
