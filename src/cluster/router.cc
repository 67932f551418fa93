#include "cluster/router.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace skipsim::cluster
{

namespace
{
constexpr double kInf = std::numeric_limits<double>::infinity();

/** The smaller of two sibling tree nodes. On equal loads the left
 *  child, which holds the lower indices, wins: the lowest-index
 *  tie-break of a scan in index order. */
template <class Node>
const Node &
minChild(const Node &left, const Node &right)
{
    return right.load < left.load ? right : left;
}
} // namespace

const char *
routerPolicyName(RouterPolicy policy)
{
    switch (policy) {
    case RouterPolicy::RoundRobin:
        return "round-robin";
    case RouterPolicy::LeastOutstanding:
        return "least-outstanding";
    case RouterPolicy::WeightedThroughput:
        return "weighted";
    case RouterPolicy::SessionAffinity:
        return "affinity";
    }
    return "unknown";
}

RouterPolicy
routerPolicyByName(const std::string &name)
{
    for (RouterPolicy policy :
         {RouterPolicy::RoundRobin, RouterPolicy::LeastOutstanding,
          RouterPolicy::WeightedThroughput,
          RouterPolicy::SessionAffinity}) {
        if (name == routerPolicyName(policy))
            return policy;
    }
    fatal(strprintf("cluster: unknown router policy '%s' (expected "
                    "round-robin, least-outstanding, weighted or "
                    "affinity)",
                    name.c_str()));
}

std::vector<std::string>
routerPolicyNames()
{
    return {"round-robin", "least-outstanding", "weighted", "affinity"};
}

Router::Router(RouterPolicy policy, std::vector<double> weights)
    : _policy(policy), _weights(std::move(weights))
{
    if (_weights.empty())
        fatal("Router: need at least one replica");
    for (double w : _weights) {
        if (!(w > 0.0))
            fatal("Router: replica weights must be positive");
    }
    _outstanding.assign(_weights.size(), 0);
    _down.assign(_weights.size(), false);
    while (_leaves < _weights.size())
        _leaves *= 2;
}

std::size_t
Router::npos()
{
    return std::numeric_limits<std::size_t>::max();
}

void
Router::setClasses(std::vector<unsigned> classes)
{
    if (!classes.empty() && classes.size() != _weights.size())
        fatal("Router: class mask count must match the replica count");
    _classes = std::move(classes);
    _trees.clear();
}

bool
Router::inClass(std::size_t replica, unsigned klass) const
{
    return klass == kAnyClass || _classes.empty() ||
        (_classes[replica] & klass) != 0;
}

bool
Router::eligible(std::size_t replica,
                 const std::vector<std::size_t> &exclude,
                 unsigned klass) const
{
    if (_down[replica] || !inClass(replica, klass))
        return false;
    return std::find(exclude.begin(), exclude.end(), replica) ==
        exclude.end();
}

double
Router::leafLoad(const Tree &tree, std::size_t replica) const
{
    if (_down[replica] || !inClass(replica, tree.klass))
        return kInf;
    double load = static_cast<double>(_outstanding[replica]);
    if (_policy == RouterPolicy::WeightedThroughput)
        load /= _weights[replica];
    return load;
}

void
Router::setLeaf(Tree &tree, std::size_t replica, double load) const
{
    std::size_t i = _leaves + replica;
    tree.nodes[i].load = load;
    // A parent that comes out unchanged leaves every ancestor
    // unchanged too, so the walk stops there.
    for (i /= 2; i >= 1; i /= 2) {
        const Node &best =
            minChild(tree.nodes[2 * i], tree.nodes[2 * i + 1]);
        Node &node = tree.nodes[i];
        if (node.load == best.load && node.replica == best.replica)
            break;
        node = best;
    }
}

void
Router::touch(std::size_t replica)
{
    for (Tree &tree : _trees) {
        if (inClass(replica, tree.klass))
            setLeaf(tree, replica, leafLoad(tree, replica));
    }
}

Router::Tree &
Router::treeFor(unsigned klass) const
{
    if (_classes.empty())
        klass = kAnyClass;
    for (Tree &tree : _trees) {
        if (tree.klass == klass)
            return tree;
    }
    Tree &tree = _trees.emplace_back();
    tree.klass = klass;
    tree.nodes.assign(2 * _leaves, Node{kInf, npos()});
    for (std::size_t r = 0; r < _weights.size(); ++r)
        tree.nodes[_leaves + r] = Node{leafLoad(tree, r), r};
    for (std::size_t i = _leaves - 1; i >= 1; --i)
        tree.nodes[i] =
            minChild(tree.nodes[2 * i], tree.nodes[2 * i + 1]);
    return tree;
}

std::size_t
Router::leastLoaded(const std::vector<std::size_t> &exclude,
                    unsigned klass) const
{
    Tree &tree = treeFor(klass);
    std::size_t n = _weights.size();
    for (std::size_t r : exclude) {
        if (r < n)
            setLeaf(tree, r, kInf);
    }
    const Node &root = tree.nodes[1];
    std::size_t best = root.load < kInf ? root.replica : npos();
    for (std::size_t r : exclude) {
        if (r < n)
            setLeaf(tree, r, leafLoad(tree, r));
    }
    return best;
}

std::size_t
Router::pick(int session, const std::vector<std::size_t> &exclude,
             unsigned klass) const
{
    std::size_t n = _weights.size();
    switch (_policy) {
    case RouterPolicy::RoundRobin:
        for (std::size_t step = 0; step < n; ++step) {
            std::size_t r = (_rrCursor + step) % n;
            if (eligible(r, exclude, klass)) {
                _rrCursor = (r + 1) % n;
                return r;
            }
        }
        return npos();
    case RouterPolicy::LeastOutstanding:
    case RouterPolicy::WeightedThroughput:
        return leastLoaded(exclude, klass);
    case RouterPolicy::SessionAffinity: {
        std::size_t home = static_cast<std::size_t>(session) % n;
        if (eligible(home, exclude, klass))
            return home;
        return leastLoaded(exclude, klass);
    }
    }
    return npos();
}

void
Router::onDispatch(std::size_t replica)
{
    ++_outstanding.at(replica);
    touch(replica);
}

void
Router::onSettled(std::size_t replica)
{
    std::size_t &count = _outstanding.at(replica);
    if (count == 0)
        fatal("Router: settled more requests than were dispatched");
    --count;
    touch(replica);
}

void
Router::markDown(std::size_t replica)
{
    _down.at(replica) = true;
    touch(replica);
}

void
Router::markUp(std::size_t replica)
{
    _down.at(replica) = false;
    touch(replica);
}

} // namespace skipsim::cluster
